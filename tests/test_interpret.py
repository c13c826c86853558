import dataclasses
import itertools
import pickle
import random
import re

import pytest

from msograph import interpret, plans
from msograph.bichain_family import build_Pn, build_Zn, psi_bichain
from msograph.graphs import LabeledGraph, grid, make_Tn, upper_tri_grid
from msograph.interpret import (Interpretation, InterpretationError, Pipeline,
                                apply, apply_all_params, builtin_complement,
                                builtin_induced, compose_pipeline,
                                parse_interpretation)
from msograph.logic import (EvalError, PredicateLibrary, SetQuantifierCapError,
                            evaluate, materialize, materialize_all,
                            parse_formula, parse_library)
from msograph.power_family import build_Dn, phi_power
from msograph.search import (_automorphisms, is_isomorphic,
                             isomorphism_classes)
from msograph.table import LazyRows
from msograph.verify import WORDS
from msograph.word_family import (build_Hn, delta_interp,
                                  gamma_contract_interp, grid_parameter_O,
                                  word_predicates)


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


def test_repeated_parameters_are_rejected_where_made():
    text = "params: [Z, Z]\ndomain(x) := Z(x)\nedge(x,y) := E(x,y)"
    with pytest.raises(InterpretationError, match="repeated"):
        parse_interpretation(text)
    with pytest.raises(InterpretationError, match=r"\['Y', 'Z'\]"):
        Interpretation(("Z", "Y", "W", "Y", "Z"), parse_formula("Z(x)"),
                       parse_formula("E(x, y)"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        builtin_induced().params = ("Z", "Z")


def test_a_tabulated_predicate_called_with_the_wrong_arity():
    lib = parse_library("def adj(x, y) := E(x, y)")
    I = Interpretation((), parse_formula("adj(x)"),
                       parse_formula("adj(x, y)"), lib)
    with pytest.raises(EvalError, match="arity 1, tabulated with 2"):
        apply(I, grid(2, 2))


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


def test_a_long_chain_of_calls_evaluated_untabulated():
    # evaluate tabulates nothing: each definition is a callee of the one
    # above it, planned when the binding binds it, not inside its caller
    lib = parse_library("def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, 200)))
    G = grid(1, 3)
    f = parse_formula("p199(x, y)")
    assert evaluate(G, lib, f, {"x": 0, "y": 1})
    assert not evaluate(G, lib, f, {"x": 0, "y": 2})
    f = parse_formula("exists y. (p199(x, y) & y != z)")
    assert evaluate(G, lib, f, {"x": 1, "z": 0})
    assert not evaluate(G, lib, f, {"x": 2, "z": 1})


def test_tabulating_a_chain_walks_the_library_once(monkeypatch):
    lib = parse_library("def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, 1000)))
    G = grid(1, 3)
    walks = []
    walk = PredicateLibrary._walk
    monkeypatch.setattr(PredicateLibrary, "_walk",
                        lambda self, names: walks.append(1) or
                        walk(self, names))
    tables = materialize_all(G, lib)
    assert len(walks) == 1
    for name in ("p0", "p500", "p999"):
        assert tables[name] == materialize(G, lib, name)


def test_a_long_chain_of_ternary_tables():
    # each lazy table reads the one below it, so the chain is cut into
    # lazy runs whose reads nest a bounded number of tables deep
    lib = parse_library("def q0(x, z, y) := E(x, y) | E(z, y)\n" + "".join(
        f"def q{i}(x, z, y) := q{i - 1}(x, z, y)\n" for i in range(1, 1000)))
    G = grid(1, 3)
    I = Interpretation((), parse_formula("x = x"),
                       parse_formula("q999(x, x, y)"), lib)
    assert apply(I, G).edges == G.edges
    either = {(x, z, y) for x in range(3) for z in range(3) for y in range(3)
              if G.has_edge(x, y) or G.has_edge(z, y)}
    assert materialize(G, lib, "q999") == either
    assert materialize_all(G, lib)["q999"] == either
    binding = plans.Binding(G, lib, 22)
    tables = binding.tabulate(["q999"])
    assert 0 < max(binding.depths.values()) <= plans._MAX_LAZY_DEPTH
    assert tables["q999"] == either


def _tabulated_before_use(monkeypatch):
    """Make every binding fill its tables when it tabulates them."""
    tabulate = plans.Binding.tabulate

    def filled(self, names):
        tables = tabulate(self, names)
        for t in tables.values():
            t.fill()
        return tables
    monkeypatch.setattr(plans.Binding, "tabulate", filled)


def _differential_hosts():
    """(interpretation, host, parameters) of the word, bichain and power
    suites: the word pipeline on four words at n = 1 and 2, psi_bichain
    on Z_6 and Z_8, phi_power on D_20."""
    for pattern in WORDS:
        for n in (1, 2):
            reps = -(-(2 * n + 4) // sum(c != "0" for c in pattern))
            H = build_Hn(pattern * reps, n)
            yield delta_interp(), H, None
            D = apply(delta_interp(), H)
            yield gamma_contract_interp(), D, [grid_parameter_O(D)]
    for n in (6, 8):
        yield psi_bichain(), build_Zn(n), None
    yield phi_power(), build_Dn(20), None


def test_lazy_tables_change_no_output(monkeypatch):
    cases = list(_differential_hosts())
    for I, G, _ in cases:
        # each lazy table, a row at the last vertex read first, is the
        # full table once its other rows are read
        lib = I.library
        tables = plans.Binding(G, lib, 22).tabulate(
            [d.name for d in lib.defs])
        lazy = [t for t in tables.values() if isinstance(t._rows, LazyRows)]
        assert lazy or not lib.defs
        for t in lazy:
            row = t.rows(t.arity - 1)
            for _ in range(t.arity - 1):
                row = row[G.n - 1]
        assert tables == materialize_all(G, lib)
        assert not any(isinstance(t._rows, LazyRows) for t in lazy)
    outputs = [apply(I, G, params) for I, G, params in cases]
    _tabulated_before_use(monkeypatch)
    assert outputs == [apply(I, G, params) for I, G, params in cases]


def test_apply_makes_few_rows_of_lessthan(monkeypatch):
    # gamma_2 reads lessthan(x, z, .) only where rhscolumn_2(x, z) holds
    body = word_predicates().by_name["lessthan"].body
    calls = []
    compile_ = plans.Binding.compile

    def counted(self, f, params, row=None, want=False):
        fn = compile_(self, f, params, row, want)
        if f is body:
            return lambda *args: calls.append(args) or fn(*args)
        return fn
    monkeypatch.setattr(plans.Binding, "compile", counted)
    H = build_Hn("102" * 4, 2)
    apply(delta_interp(), H)
    assert 0 < len(calls) < 0.05 * H.n ** 2
    assert len(set(calls)) == len(calls)


def test_rows_that_apply_never_reads_may_pass_the_cap(monkeypatch):
    # p's rows at the x outside Small reach an unguarded set quantifier
    lib = parse_library("def p(x, y) := E(x, y) & (Small(x) | exists S. S(y))")
    G = grid(2, 3).with_labels({"Small": [0, 1, 2]})
    I = Interpretation((), parse_formula("Small(x)"),
                       parse_formula("p(x, y)"), lib)
    H = apply(I, G, set_cap=2)
    assert H == apply(I, G, set_cap=22) and H.edges == {(0, 1), (1, 2)}
    with pytest.raises(SetQuantifierCapError):
        materialize(G, lib, "p", set_cap=2)
    with pytest.raises(SetQuantifierCapError):
        materialize_all(G, lib, set_cap=2)
    everywhere = Interpretation((), parse_formula("x = x"),
                                parse_formula("p(x, y)"), lib)
    with pytest.raises(SetQuantifierCapError):
        apply(everywhere, G, set_cap=2)
    _tabulated_before_use(monkeypatch)
    with pytest.raises(SetQuantifierCapError):
        apply(I, G, set_cap=2)


def test_only_tables_of_arity_2_or_3_wait_for_a_read():
    # L0 is empty, so apply reads no row of the table the edge formula
    # calls; but a unary table makes its one row when it is tabulated,
    # and that row reaches a set quantifier over 23 free vertices
    G = LabeledGraph.build(23, [(0, 1)]).with_labels({"L0": ()})

    def interp(definition, call):
        return parse_interpretation(
            f"def {definition}\ndomain(x) := x = x\n"
            f"edge(x, y) := E(x, y) & L0(x) & {call}\n")
    with pytest.raises(SetQuantifierCapError):
        apply(interp("big(x) := exists S. forall z. S(z)", "big(x)"), G)
    H = apply(interp("big2(x, y) := x = y & exists S. forall z. S(z)",
                     "big2(x, x)"), G)
    assert H.n == 23 and not H.edges


def test_tables_survive_pickle():
    H = build_Hn("1212", 1)
    tables = dict(materialize_all(H, word_predicates()))
    lib = parse_library("def some() := exists x. exists y. E(x, y)\n"
                        "def end(x) := exists! y. E(x, y)\n"
                        "def adj(x, y) := E(x, y)\n"
                        "def path(x, y, z) := E(x, y) & E(y, z)")
    for d in lib.defs:
        tables[d.name] = materialize(H, lib, d.name)
    assert {t.arity for t in tables.values()} == {0, 1, 2, 3}
    for name, t in tables.items():
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and set(copy) == set(t), name


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


def test_an_asymmetric_pair_is_named_before_a_later_reflexive_vertex():
    # the pair (a, e) is checked at a, before the reflexive c, though e
    # comes after c; vertex b is outside the domain
    G = LabeledGraph.build(5, [], labels={"red": [0], "blue": [4],
                                          "green": [2], "out": [1]},
                           names=dict(enumerate("abcde")))
    for pair in ("red(x) & blue(y)", "blue(x) & red(y)"):
        bad = Interpretation((), parse_formula("!out(x)"), parse_formula(
            f"({pair}) | (x = y & green(x))"))
        with pytest.raises(InterpretationError,
                           match=re.escape("asymmetric on (a, e)")):
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


def test_apply_all_params_refuses_more_tuples_than_its_cap():
    over = grid(1, interpret.DEFAULT_ENUM_CAP + 1)  # one parameter
    with pytest.raises(InterpretationError, match=re.escape(
            f"cap is n*p <= {interpret.DEFAULT_ENUM_CAP}")):
        next(apply_all_params(builtin_induced(), over))


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


def _rows_of_edges(H):
    adj = [0] * H.n
    for u, v in H.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def test_outputs_carry_the_rows_of_their_edges():
    two = Interpretation(("A", "B"), parse_formula("A(x) | B(x)"),
                         parse_formula("E(x, y) & (A(x) <-> A(y)) | "
                                       "(B(x) & B(y) & x != y)"))
    per_tuple = parse_interpretation("""
        params: [Z]
        def inz(x) := Z(x)
        domain(x) := inz(x)
        edge(x, y) := !E(x, y) & x != y & inz(x) & inz(y)
    """)
    hosts = _dedupe_hosts()
    for I, G in itertools.chain(
            ((I, G) for G in hosts
             for I in (builtin_induced(), builtin_complement())),
            ((two, G) for G in hosts[3:40] if G.n <= 5),
            ((per_tuple, G) for G in hosts[3:40])):
        for dedupe in (False, True):
            for H in apply_all_params(I, G, dedupe=dedupe):
                assert H._adj == _rows_of_edges(H), (I.name, G, H)
                # the fields pass the checks that building them skipped
                assert LabeledGraph(H.n, H.edges, H.labels, H.names) == H


def _count_graphs_made(monkeypatch):
    """A counter of the LabeledGraph objects made from now on."""
    made = [0]
    post_init = LabeledGraph.__post_init__
    unchecked = LabeledGraph._unchecked

    def counted_post_init(self):
        made[0] += 1
        post_init(self)

    def counted_unchecked(*args):
        made[0] += 1
        return unchecked(*args)

    monkeypatch.setattr(LabeledGraph, "__post_init__", counted_post_init)
    monkeypatch.setattr(LabeledGraph, "_unchecked",
                        staticmethod(counted_unchecked))
    return made


def test_dedupe_builds_only_the_graphs_it_yields(monkeypatch):
    hosts = [grid(3, 3), make_Tn(3), build_Pn(3)] + _dedupe_hosts()[3:30]
    made = _count_graphs_made(monkeypatch)
    for G in hosts:
        made[0] = 0
        kept = sum(1 for _ in apply_all_params(builtin_induced(), G,
                                               dedupe=True))
        assert made[0] == kept, G
    G = grid(2, 3)
    made[0] = 0
    assert sum(1 for _ in apply_all_params(builtin_induced(), G)) \
        == made[0] == 64


def _per_tuple(I, G):
    """The oracle of the sweep: one ``apply``, with a binding of its own,
    per parameter tuple, in the order of ``apply_all_params``."""
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(G.n), r) for r in range(G.n + 1)))
    for choice in itertools.product(subsets, repeat=len(I.params)):
        yield apply(I, G, [frozenset(c) for c in choice])


def _stream(outputs):
    """The graphs of a stream up to its first InterpretationError, and the
    error's message."""
    got = []
    try:
        for H in outputs:
            got.append(H)
    except InterpretationError as e:
        return got, str(e)
    return got, None


def _assert_sweep_equals_the_oracle(I, G):
    # the same graphs, names and labels included, in the same order
    outputs, error = _stream(_per_tuple(I, G))
    assert _stream(apply_all_params(I, G)) == (outputs, error), G
    assert _stream(apply_all_params(I, G, dedupe=True)) == \
        (list(isomorphism_classes(outputs)), error), G


def _shuffled(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return LabeledGraph.build(
        G.n, [(perm[u], perm[v]) for (u, v) in G.edges],
        {k: [perm[v] for v in vs] for k, vs in G.labels.items()},
        {perm[v]: G.name_of(v) for v in range(G.n)})


CENSUS_HOSTS = (grid(3, 4), grid(2, 6), grid(3, 3), upper_tri_grid(4),
                make_Tn(3), build_Pn(3), build_Zn(3, with_labels=False))


@pytest.mark.parametrize("host", range(len(CENSUS_HOSTS)))
def test_census_sweep_equals_the_per_tuple_oracle(host):
    G = CENSUS_HOSTS[host]
    for H in (G, _shuffled(G, host)):
        _assert_sweep_equals_the_oracle(builtin_induced(), H)


def test_sweep_keeps_labels_and_their_automorphisms():
    # a label on one corner leaves grid(3,3) only its diagonal flip
    G = grid(3, 3).with_labels({"c": [0], "Z": [4]})
    for I in (builtin_induced(), Interpretation(
            ("Z",), parse_formula("Z(x) | c(x)"),
            parse_formula("E(x, y) & !(c(x) & c(y))"))):
        _assert_sweep_equals_the_oracle(I, G)
        _assert_sweep_equals_the_oracle(I, _shuffled(G, 3))
    _assert_sweep_equals_the_oracle(builtin_induced(), build_Zn(3))


def test_sweep_with_two_parameters():
    I = Interpretation(("A", "B"), parse_formula("A(x) | B(x)"),
                       parse_formula("E(x, y) & (A(x) <-> A(y)) | "
                                     "(B(x) & B(y) & x != y)"))
    C5 = LabeledGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for G in (_shuffled(grid(2, 3), 1), C5):
        _assert_sweep_equals_the_oracle(I, G)


def test_sweep_binds_per_tuple_when_a_definition_mentions_a_parameter():
    I = parse_interpretation("""
        params: [Z]
        def inz(x) := Z(x)
        domain(x) := inz(x)
        edge(x, y) := E(x, y) & inz(x) & inz(y)
    """)
    for G in (grid(3, 3), _shuffled(grid(2, 4), 2)):
        _assert_sweep_equals_the_oracle(I, G)


def test_sweep_forgets_the_memos_of_each_tuple(monkeypatch):
    # the TC body mentions the parameter O, so its closures are memoized
    # under O's mask, a new one per tuple
    bindings = []

    class Kept(interpret.Binding):
        def __init__(self, *args):
            super().__init__(*args)
            bindings.append(self)

    monkeypatch.setattr(interpret, "Binding", Kept)
    I = gamma_contract_interp()
    G = LabeledGraph.build(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                               (5, 6), (6, 7), (7, 0), (0, 4)])
    _assert_sweep_equals_the_oracle(I, G)
    _assert_sweep_equals_the_oracle(I, _shuffled(grid(2, 4), 4))
    assert sum(1 for _ in apply_all_params(I, G)) == 256
    swept = bindings[-1]
    assert swept.memos and all(m.cache_info().currsize <= 1
                               for m in swept.memos)


def test_sweep_raises_where_the_oracle_does():
    I = Interpretation(("Z",), parse_formula("x = x"),
                       parse_formula("E(x, y) & (Z(x) -> Z(y))"))
    for G in (grid(2, 3), _shuffled(make_Tn(3), 5),
              LabeledGraph.build(3, [(0, 1)])):
        _assert_sweep_equals_the_oracle(I, G)
        got, error = _stream(apply_all_params(I, G, dedupe=True))
        assert got and error.startswith("edge formula asymmetric on")


def test_orbit_leaders_are_the_least_tuples_of_their_orbits():
    def key(S):  # the place of a subset in the order of apply_all_params
        return S.bit_count(), [v for v in range(S.bit_length()) if S >> v & 1]

    def image(perm, S):
        return sum(1 << perm[v] for v in range(len(perm)) if S >> v & 1)

    for G, p, leaders in ((grid(3, 3), 1, 102), (make_Tn(3), 1, 30),
                          (grid(2, 2), 2, 55)):
        auts = _automorphisms(G)
        subsets = sorted(range(1 << G.n), key=key)
        tuples = list(itertools.product(subsets, repeat=p))
        got = list(interpret._orbit_leaders(iter(tuples), auts))
        assert got == [t for t in tuples if all(
            [key(image(a, S)) for S in t] >= [key(S) for S in t]
            for a in auts)]
        assert len(got) == leaders


def test_census_stream_past_the_automorphism_budget():
    G = LabeledGraph.build(10, [])
    _assert_sweep_equals_the_oracle(builtin_induced(), G)
    assert sum(1 for _ in apply_all_params(builtin_induced(), G,
                                           dedupe=True)) == 11


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
