import itertools
import random
import re

import pytest

from msograph.bichain_family import build_Pn
from msograph.graphs import LabeledGraph, grid, make_Tn
from msograph.interpret import (Interpretation, InterpretationError, Pipeline,
                                apply, apply_all_params, builtin_complement,
                                builtin_induced, compose_pipeline,
                                parse_interpretation)
from msograph.logic import (SetQuantifierCapError, evaluate, materialize,
                            materialize_all, parse_formula, parse_library)
from msograph.search import is_isomorphic


def test_complement_twice_is_identity():
    G = grid(2, 3)
    H = apply(builtin_complement(), apply(builtin_complement(), G))
    assert H.edges == G.edges


def test_induced_with_explicit_params():
    G = grid(2, 2)
    H = apply(builtin_induced(), G, [{0, 1}])
    assert H.n == 2 and len(H.edges) == int(G.has_edge(0, 1))


def test_params_bound_from_labels():
    G = grid(2, 2).with_labels({"Z": [0, 1]})
    H = apply(builtin_induced(), G)
    assert H.n == 2


def test_edge_formula_in_one_variable_is_reflexive_whatever_its_name():
    for v in ("x", "y", "b"):
        I = Interpretation((), parse_formula("x = x"),
                           parse_formula(f"exists z. E({v}, z)"))
        with pytest.raises(InterpretationError, match="reflexive"):
            apply(I, grid(2, 2))


def test_apply_tabulates_only_the_definitions_it_reaches():
    lib = parse_library("def big(x) := exists X. (X(x) & !adj(x, x))\n"
                        "def adj(x, y) := E(x, y)")
    I = Interpretation((), parse_formula("x = x"),
                       parse_formula("adj(x, y)"), lib)
    H = apply(I, grid(5, 5), set_cap=10)
    assert H.n == 25 and len(H.edges) == 40
    reached = Interpretation((), parse_formula("big(x)"),
                             parse_formula("adj(x, y)"), lib)
    with pytest.raises(SetQuantifierCapError):
        apply(reached, grid(5, 5), set_cap=10)


def test_a_long_chain_of_calls():
    lib = parse_library("def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, 1000)))
    G = grid(1, 3)
    both_ways = {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert materialize(G, lib, "p999") == both_ways
    assert materialize_all(G, lib)["p999"] == both_ways
    I = Interpretation((), parse_formula("x = x"),
                       parse_formula("p999(x, y)"), lib)
    assert apply(I, G).edges == G.edges


def test_primed_names():
    lib = parse_library("def p(x') := exists y. E(x', y)")
    I = Interpretation((), parse_formula("p(x')"),
                       parse_formula("E(x', y') & p(x') & p(y')"), lib)
    H = apply(I, LabeledGraph.build(4, [(0, 1), (1, 2)]))
    assert H.n == 3 and H.edges == {(0, 1), (1, 2)}


def test_missing_params_error():
    with pytest.raises(InterpretationError):
        apply(builtin_induced(), grid(2, 2))


def test_provenance_names_survive():
    G = grid(2, 2)
    H = apply(builtin_induced(), G, [{2, 3}])
    assert {H.name_of(0), H.name_of(1)} == {G.name_of(2), G.name_of(3)}


def test_reflexive_edge_formula_rejected():
    bad = Interpretation((), parse_formula("x = x"), parse_formula("x = y"))
    with pytest.raises(InterpretationError):
        apply(bad, grid(2, 2))


def test_edge_formula_errors_name_the_first_bad_pair():
    # pairs are checked x by x, each x first against itself, then
    # against the domain vertices after it
    G = LabeledGraph.build(4, [], labels={"red": [1, 3], "blue": [2]})
    for edge, message in [
            ("(red(x) & !red(y)) | (x = y & blue(x))", "asymmetric on (0, 1)"),
            ("(red(x) & y = x) | (blue(x) & red(y))", "reflexive at 1"),
            ("blue(x) & red(y)", "asymmetric on (1, 2)")]:
        bad = Interpretation((), parse_formula("x = x"), parse_formula(edge))
        with pytest.raises(InterpretationError, match=re.escape(message)):
            apply(bad, G)


def _first_bad_pair(G, edge):
    """The error apply must raise for the edge formula on all of G, found
    pair by pair with the formula evaluator, or None."""
    def rel(x, y):
        return evaluate(G, None, edge, {"x": x, "y": y})
    for x in range(G.n):
        if rel(x, x):
            return f"reflexive at {x}"
        for y in range(x + 1, G.n):
            if rel(x, y) != rel(y, x):
                return f"asymmetric on ({x}, {y})"
    return None


def test_edge_checks_agree_with_pairwise_evaluation():
    rng = random.Random(21)
    formulas = [parse_formula(text) for text in (
        "E(x, y) & red(x)", "x != y & (red(x) | blue(y))",
        "(E(x, y) & red(x) & red(y)) | (blue(x) & x = y)",
        "E(x, y) | (red(x) & blue(y) & !E(x, y))", "x != y & !E(x, y)")]
    outcomes = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.5],
            {k: [v for v in range(n) if rng.random() < 0.4]
             for k in ("red", "blue")})
        for edge in formulas:
            want = _first_bad_pair(G, edge)
            I = Interpretation((), parse_formula("x = x"), edge)
            if want is None:
                H = apply(I, G)
                assert H.edges == {(x, y) for x, y in itertools.combinations(
                    range(n), 2) if evaluate(G, None, edge, {"x": x, "y": y})}
            else:
                with pytest.raises(InterpretationError,
                                   match=re.escape(want)):
                    apply(I, G)
            outcomes.add(want and want.split()[0])
    assert outcomes == {None, "reflexive", "asymmetric"}


def test_asymmetric_edge_formula_rejected():
    G = LabeledGraph.build(2, [], labels={"red": [0]})
    bad = Interpretation((), parse_formula("x = x"),
                         parse_formula("red(x) & !red(y)"))
    with pytest.raises(InterpretationError):
        apply(bad, G)


def test_interpretation_with_library():
    lib = parse_library("def twostep(x, y) := exists z. (E(x, z) & E(z, y))")
    I = Interpretation((), parse_formula("x = x"),
                       parse_formula("x != y & twostep(x, y)"), library=lib)
    P4 = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    H = apply(I, P4)
    assert H.edges == frozenset({(0, 2), (1, 3)})


def test_pipeline_equals_nesting():
    G = grid(2, 3)
    p = Pipeline([(builtin_complement(), None), (builtin_complement(), None)])
    assert compose_pipeline(p, G).edges == G.edges


def test_apply_all_params_yields_all_induced_subgraphs():
    G = LabeledGraph.build(3, [(0, 1)])
    outs = list(apply_all_params(builtin_induced(), G))
    assert len(outs) == 8
    sizes = sorted(H.n for H in outs)
    assert sizes == [0, 1, 1, 1, 2, 2, 2, 3]


def _quadratic_dedupe(graphs):
    """Each graph not isomorphic to one kept before it, in order."""
    seen = []
    for H in graphs:
        if any(is_isomorphic(H, K) is not None for K in seen):
            continue
        seen.append(H)
    return seen


def _dedupe_hosts():
    rng = random.Random(8)
    hosts = [grid(3, 3), make_Tn(3), build_Pn(3)]
    for trial in range(100):
        n = rng.randint(0, 7)
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < rng.random()])
        if trial % 2:  # labels ride along but do not count for isomorphism
            G = G.with_labels({"a": [v for v in range(n)
                                     if rng.random() < 0.5]})
        hosts.append(G)
    return hosts


def test_dedupe_stream_equals_the_quadratic_scan():
    induced = builtin_induced()
    for G in _dedupe_hosts():
        got = list(apply_all_params(induced, G, dedupe=True))
        want = _quadratic_dedupe(apply_all_params(induced, G))
        # the same graphs, names and labels included, in the same order
        assert got == want, G


def test_dedupe_class_counts_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    induced = builtin_induced()
    for G in _dedupe_hosts()[3:]:
        classes = []
        for H in apply_all_params(induced, G):
            X = nx.Graph()
            X.add_nodes_from(range(H.n))
            X.add_edges_from(H.edges)
            if not any(nx.is_isomorphic(X, Y) for Y in classes):
                classes.append(X)
        assert sum(1 for _ in apply_all_params(induced, G, dedupe=True)) \
            == len(classes), G


def test_parse_interpretation_file():
    I = parse_interpretation("""
        params: [Z]
        def inz(x) := Z(x)
        domain(x) := inz(x)
        edge(x, y) := E(x, y)
    """)
    assert I.params == ("Z",)
    H = apply(I, grid(2, 2), [{0, 1, 2}])
    assert H.n == 3


def test_parse_interpretation_requires_both_rules():
    with pytest.raises(InterpretationError):
        parse_interpretation("domain(x) := x = x")
