import re

import pytest

from msograph.graphs import LabeledGraph, grid
from msograph.interpret import (Interpretation, InterpretationError, Pipeline,
                                apply, apply_all_params, builtin_complement,
                                builtin_induced, compose_pipeline,
                                parse_interpretation)
from msograph.logic import parse_formula, parse_library
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
