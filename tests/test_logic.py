"""The evaluator against an independent brute-force reference, plus
parser, library, relativization, and TC-encoding behavior."""

import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

from msograph import plans
from msograph.bichain_family import bichain_predicates, build_Zn
from msograph.graphs import LabeledGraph, grid, induced_subgraph
from msograph.logic import (And, EdgeAtom, Eq, EvalError, ExistsS, ExistsV,
                            FalseF, ForallS, ForallV, Formula,
                            FormulaSyntaxError, Iff, Implies, Not, Or,
                            PredicateLibrary, SetAtom, SetQuantifierCapError,
                            TC, Table, TrueF, App, app_refs,
                            evaluate, free_vars, materialize, subformulas,
                            materialize_all, parse_formula, parse_library,
                            relativize, substitute, tc_naive_encoding)
from msograph.syntax import fresh_var
from msograph.power_family import build_Dn, power_predicates
from msograph.word_family import build_Hn, word_predicates


# ---------------------------------------------------------------------------
# Reference evaluator: no bitsets, no compilation, no caching
# ---------------------------------------------------------------------------

def ref_eval(G: LabeledGraph, f: Formula, env: dict, lib=None) -> bool:
    def rec(g, e=env):
        return ref_eval(G, g, e, lib)
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, EdgeAtom):
        return G.has_edge(env[f.x], env[f.y])
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    if isinstance(f, SetAtom):
        return env[f.x] in env.get(f.set_name, G.labels.get(f.set_name))
    if isinstance(f, App):
        if lib is not None and f.name in lib:
            d = lib.by_name[f.name]
            return rec(d.body, {p: env.get(a, G.labels.get(a))
                                for p, a in zip(d.params, f.args)})
        (x,) = f.args
        return env[x] in G.labels[f.name]
    if isinstance(f, Not):
        return not rec(f.body)
    if isinstance(f, And):
        return rec(f.left) and rec(f.right)
    if isinstance(f, Or):
        return rec(f.left) or rec(f.right)
    if isinstance(f, Implies):
        return (not rec(f.left)) or rec(f.right)
    if isinstance(f, Iff):
        return rec(f.left) == rec(f.right)
    if isinstance(f, ExistsV):
        return any(rec(f.body, {**env, f.var: v}) for v in range(G.n))
    if isinstance(f, ForallV):
        return all(rec(f.body, {**env, f.var: v}) for v in range(G.n))
    if isinstance(f, (ExistsS, ForallS)):
        subsets = (frozenset(c) for r in range(G.n + 1)
                   for c in itertools.combinations(range(G.n), r))
        results = (rec(f.body, {**env, f.var: S}) for S in subsets)
        return any(results) if isinstance(f, ExistsS) else all(results)
    if isinstance(f, TC):
        pairs = {(u, v) for u in range(G.n) for v in range(G.n)
                 if rec(f.body, {**env, f.u: u, f.v: v})}
        reach = {env[f.a]}
        changed = True
        while changed:
            changed = False
            for (u, v) in pairs:
                if u in reach and v not in reach:
                    reach.add(v)
                    changed = True
        return env[f.b] in reach
    raise TypeError(f)


def _to_env(valuation):
    return {k: (frozenset(v) if isinstance(v, (set, frozenset)) else v)
            for k, v in valuation.items()}


# Reference facts: what each node keeps, recomputed by walking the tree

def ref_free_vars(f: Formula) -> frozenset:
    """The free vertex- and set-variable names of f, by recursion."""
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (EdgeAtom, Eq)):
        return frozenset({f.x, f.y})
    if isinstance(f, SetAtom):
        return frozenset({f.set_name, f.x})
    if isinstance(f, App):
        return frozenset(f.args)
    if isinstance(f, Not):
        return ref_free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return ref_free_vars(f.left) | ref_free_vars(f.right)
    if isinstance(f, (ExistsV, ForallV, ExistsS, ForallS)):
        return ref_free_vars(f.body) - {f.var}
    if isinstance(f, TC):
        return (ref_free_vars(f.body) - {f.u, f.v}) | {f.a, f.b}
    raise TypeError(f)


def ref_nodes(f: Formula) -> list:
    """Every node of f, by a walk on a stack."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack += subformulas(g)
    return out


def ref_calls(f: Formula) -> frozenset:
    return frozenset((g.name, len(g.args)) for g in ref_nodes(f)
                     if isinstance(g, App))


def ref_sets(f: Formula) -> bool:
    return any(isinstance(g, (ExistsS, ForallS)) for g in ref_nodes(f))


def _random_graph(rng, n, n_labels=1):
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    labels = {f"red": frozenset(v for v in range(n) if rng.random() < 0.5)}
    return LabeledGraph.build(n, edges, labels=labels)


# Quantifiers and TC binders draw from small pools, so names clash on
# purpose: inner binders shadow outer ones, a TC binder may reuse an outer
# name, and primed and numbered names sit next to their base name.
VERTEX_NAMES = ("x", "y", "x'", "x_1")
SET_NAMES = ("S", "S'", "S_1")


def _random_formula(rng, depth, vvars, svars, calls=()):
    """calls: (name, arity kinds) of library predicates the formula may
    call, each kind "v" for a vertex and "S" for a set argument."""
    if depth == 0:
        opts = ["true"]
        if vvars:
            opts += ["edge", "eq", "label"] * 2
            if svars:
                opts += ["mem"] * 2
            opts += ["call"] * len(calls)
        k = rng.choice(opts)
        if k == "edge":
            return EdgeAtom(rng.choice(vvars), rng.choice(vvars))
        if k == "eq":
            return Eq(rng.choice(vvars), rng.choice(vvars))
        if k == "label":
            return App("red", (rng.choice(vvars),))
        if k == "mem":
            return SetAtom(rng.choice(svars), rng.choice(vvars))
        if k == "call":
            name, kinds = rng.choice(calls)
            if "S" in kinds and not svars:
                return TrueF()
            return App(name, tuple(rng.choice(svars if kind == "S" else vvars)
                                   for kind in kinds))
        return TrueF()
    k = rng.choice(["ev", "av", "es", "as", "and", "or", "imp", "iff", "not",
                    "tc", "ev", "av"])
    if k in ("ev", "av"):
        v = rng.choice(VERTEX_NAMES)
        body = _random_formula(rng, depth - 1, vvars + [v], svars, calls)
        return ExistsV(v, body) if k == "ev" else ForallV(v, body)
    if k in ("es", "as"):
        S = rng.choice(SET_NAMES)
        body = _random_formula(rng, depth - 1, vvars, svars + [S], calls)
        return ExistsS(S, body) if k == "es" else ForallS(S, body)
    if k == "not":
        return Not(_random_formula(rng, depth - 1, vvars, svars, calls))
    if k == "tc" and vvars:
        u, v = rng.sample(VERTEX_NAMES, 2)
        body = _random_formula(rng, depth - 1, vvars + [u, v], svars, calls)
        return TC(u, v, body, rng.choice(vvars), rng.choice(vvars))
    if k in ("and", "or", "imp", "iff"):
        op = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[k]
        return op(_random_formula(rng, depth - 1, vvars, svars, calls),
                  _random_formula(rng, depth - 1, vvars, svars, calls))
    return _random_formula(rng, depth - 1, vvars, svars, calls)


def _random_library(rng):
    """A binary predicate, and one with a set parameter that may call it;
    both use names that their callers use too."""
    lib = PredicateLibrary()
    lib.define("p", ("x", "x'"),
               _random_formula(rng, rng.randrange(0, 3), ["x", "x'"], []))
    lib.define("q", ("y", "S"),
               _random_formula(rng, rng.randrange(0, 3), ["y"], ["S"],
                               calls=[("p", "vv")]))
    return lib


def test_evaluator_matches_reference():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(1, 6)
        G = _random_graph(rng, n)
        f = ExistsV("x", ExistsV(
            "y", _random_formula(rng, rng.randrange(0, 3), ["x", "y"], [])))
        assert evaluate(G, None, f) == ref_eval(G, f, {})


def test_evaluator_matches_reference_with_sets():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        f = ExistsS("S", _random_formula(rng, rng.randrange(0, 3), [], ["S"]))
        assert evaluate(G, None, f) == ref_eval(G, f, {})


def test_evaluator_matches_reference_with_calls_and_free_variables():
    rng = random.Random(23)
    calls = [("p", "vv"), ("q", "vS")]
    for _ in range(300):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        lib = _random_library(rng)
        f = _random_formula(rng, rng.randrange(1, 5), ["x", "x_1"], ["S"],
                            calls)
        valuation = {"x": rng.randrange(n), "x_1": rng.randrange(n),
                     "S": frozenset(v for v in range(n) if rng.random() < .5)}
        assert evaluate(G, lib, f, valuation) == ref_eval(G, f, valuation, lib)
        assert materialize(G, lib, "p") == {
            (a, b) for a in range(n) for b in range(n)
            if ref_eval(G, App("p", ("a", "b")), {"a": a, "b": b}, lib)}


# Where the row variable y of a table goes: into every argument position
# of a table call, into two positions of one call, into E(y, y), y = y,
# and into either end of TC.  {y} is the row variable, {x} the first
# parameter (the same variable for unary definitions).
ROW_SHAPES = (
    "u({y})", "p({y}, {x})", "p({x}, {y})", "p({y}, {y})",
    "r({y}, {x}, {x})", "r({x}, {y}, {x})", "r({x}, {x}, {y})",
    "r({x}, {y}, {y})", "r({y}, {y}, {y})", "E({y}, {y})", "{y} = {y}",
    "TC[a, b: p(a, b)]({y}, {x})", "TC[a, b: p(a, b)]({x}, {y})",
    "TC[a, b: r(a, b, {x})]({y}, {x})", "TC[a, b: r(a, b, {x})]({x}, {y})",
    "TC[a, b: E(a, b) & u(b)]({y}, {y})",
)


def _row_library(rng, k, used):
    """Tabulated u, p and r with random bodies, and t of arity k whose
    body joins a random formula with two of ROW_SHAPES."""
    calls = [("u", "v"), ("p", "vv"), ("r", "vvv")]
    lib = PredicateLibrary()
    lib.define("u", ("x",), _random_formula(rng, rng.randrange(0, 3),
                                            ["x"], []))
    lib.define("p", ("x", "y"), _random_formula(
        rng, rng.randrange(0, 3), ["x", "y"], [], calls[:1]))
    lib.define("r", ("x", "x'", "y"), _random_formula(
        rng, rng.randrange(0, 2), ["x", "x'", "y"], [], calls[:2]))
    params = ("x", "x'", "y")[3 - k:]
    shapes = rng.sample(ROW_SHAPES, 2)
    used.update(shapes)
    forced = [parse_formula(shape.format(x=params[0], y=params[-1]))
              for shape in shapes]
    ops = (And, Or, Implies, Iff)
    body = rng.choice(ops)(forced[0], rng.choice(ops)(
        _random_formula(rng, rng.randrange(0, 3), list(params), [], calls),
        forced[1]))
    lib.define("t", params, Not(body) if rng.random() < 0.3 else body)
    return lib


def test_rows_match_reference():
    rng = random.Random(29)
    used = set()
    for _ in range(200):
        n = rng.randrange(1, 6)
        G = _random_graph(rng, n)
        k = rng.randrange(1, 4)
        lib = _row_library(rng, k, used)
        names = tuple(f"a{i}" for i in range(k))
        assert materialize(G, lib, "t") == {
            t for t in itertools.product(range(n), repeat=k)
            if ref_eval(G, App("t", names), dict(zip(names, t)), lib)}
    assert used == set(ROW_SHAPES)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_connectives_and_quantifiers():
    f = parse_formula("exists x. (forall y. (E(x,y) -> x = y))")
    assert isinstance(f, ExistsV)
    assert free_vars(f) == frozenset()


def test_parse_xor_desugars():
    G = LabeledGraph.build(2, [], labels={"red": [0]})
    f = parse_formula("red(x) xor red(y)")
    assert evaluate(G, None, f, {"x": 0, "y": 1})
    assert not evaluate(G, None, f, {"x": 0, "y": 0})


def test_parse_exists_unique():
    G = LabeledGraph.build(3, [(0, 1)])
    assert evaluate(G, None, parse_formula(
        "exists! x. (forall y. !E(x, y))"))  # only vertex 2 is isolated
    assert not evaluate(G, None, parse_formula(
        "exists! x. (exists y. E(x, y))"))


def test_exists_unique_is_capture_safe_and_deterministic():
    K2 = LabeledGraph.build(2, [(0, 1)])
    text = "exists! x. exists x_1. E(x, x_1)"
    assert not evaluate(K2, None, parse_formula(text))
    assert parse_formula(text) == parse_formula(text)


def test_parse_tc():
    P = LabeledGraph.build(4, [(0, 1), (1, 2)])
    f = parse_formula("TC[a, b: E(a, b)](x, y)")
    assert evaluate(P, None, f, {"x": 0, "y": 2})
    assert evaluate(P, None, f, {"x": 0, "y": 0})  # reflexive closure
    assert not evaluate(P, None, f, {"x": 0, "y": 3})


def test_parse_errors_have_positions():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists x. (E(x)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x = = y")


# ---------------------------------------------------------------------------
# Libraries and materialization
# ---------------------------------------------------------------------------

def test_library_definitions_and_tables():
    lib = parse_library("""
        # a comment
        def deg2(x) := exists! y. E(x, y) -> false
        def adj(x, y) := E(x, y)
        def twostep(x, y) := exists z. (adj(x, z) & adj(z, y))
    """)
    P = LabeledGraph.build(3, [(0, 1), (1, 2)])
    t = materialize(P, lib, "twostep")
    assert (0, 2) in t and (2, 0) in t and (0, 1) not in t


def test_library_rejects_self_reference_and_duplicates():
    from msograph.logic import LibraryError
    with pytest.raises(LibraryError):
        parse_library("def a(x) := a(x)")
    with pytest.raises(LibraryError):
        parse_library("def a(x) := true\ndef a(x) := false")


def test_library_rejects_cycles_through_forward_references():
    from msograph.logic import LibraryError
    with pytest.raises(LibraryError, match="'b' closes a cycle of calls: "
                                           "b -> a -> b"):
        parse_library("def a(x) := b(x)\ndef b(x) := a(x)")
    with pytest.raises(LibraryError, match="c -> a -> b -> c"):
        parse_library("def a(x) := b(x)\n"
                      "def b(x) := c(x) | E(x, x)\n"
                      "def c(x) := exists y. (E(x, y) & a(y))")
    lib = parse_library("def a(x) := b(x)")
    with pytest.raises(LibraryError, match="b -> a -> b"):
        lib.define("b", ("x",), parse_formula("a(x)"))
    assert "b" not in lib and [d.name for d in lib.defs] == ["a"]


def test_library_accepts_acyclic_forward_references():
    lib = parse_library("def a(x) := b(x) & c(x)\n"
                        "def b(x) := c(x)\n"
                        "def c(x) := exists y. E(x, y)")
    P = LabeledGraph.build(3, [(0, 1)])
    assert materialize(P, lib, "a") == {(0,), (1,)}
    lib.define("d", ("x",), parse_formula("a(x) | c(x)"))
    assert materialize(P, lib, "d") == {(0,), (1,)}


def test_materialize_all_skips_set_parameters():
    lib = parse_library("def inset(x, Y) := Y(x)\ndef self(x) := x = x")
    tables = materialize_all(grid(2, 2), lib)
    assert "self" in tables and "inset" not in tables


def test_materialize_all_calls_untabulatable_callees():
    lib = parse_library("def r1(a, b, c, d) := E(a, b)\n"
                        "def both(x, y) := r1(x, y, x, x)\n"
                        "def inset(x, Y) := Y(x)\n"
                        "def inred(x) := inset(x, Red)")
    G = LabeledGraph.build(3, [(0, 1)], labels={"Red": [2]})
    tables = materialize_all(G, lib)
    assert tables == {"both": {(0, 1), (1, 0)}, "inred": {(2,)}}
    with pytest.raises(EvalError):
        materialize(G, lib, "r1")


def test_materialize_alone_equals_materialize_all():
    for G, lib in ((build_Hn("121212", 1), word_predicates()),
                   (build_Zn(6), bichain_predicates()),
                   (build_Dn(12), power_predicates())):
        tables = materialize_all(G, lib)
        for name, table in tables.items():
            assert materialize(G, lib, name) == table, name


def test_primed_names():
    lib = parse_library("def p(x') := exists y. E(x', y)")
    G = LabeledGraph.build(3, [(0, 1)])
    assert materialize(G, lib, "p") == {(0,), (1,)}
    assert not evaluate(G, lib, parse_formula("p(x')"), {"x'": 2})
    assert evaluate(G, None, parse_formula("TC[x', x'': E(x', x'')](x, y)"),
                    {"x": 1, "y": 0})


def test_unresolved_names_raise_before_evaluation():
    G = grid(2, 2)
    for text in ("false & E(x, y)", "false & nosuch(x)",
                 "false & (exists x. Y(x))"):
        with pytest.raises(EvalError):
            evaluate(G, None, parse_formula(text), {"x": 0})


def test_valuations_outside_the_graph_raise():
    G = grid(2, 2)
    f = parse_formula("exists z. (Y(z) & E(x, z))")
    assert evaluate(G, None, f, {"x": 0, "Y": 0b0010})
    assert evaluate(G, None, f, {"x": 0, "Y": {1}})
    for valuation in ({"x": 4, "Y": set()}, {"x": -1, "Y": set()},
                      {"x": "0", "Y": set()}, {"x": 0, "Y": 1 << 4},
                      {"x": 0, "Y": -1}, {"x": 0, "Y": {1, 9}},
                      {"x": 0, "Y": {1, -2}}):
        with pytest.raises(EvalError):
            evaluate(G, None, f, valuation)


def test_formulas_deeper_than_the_python_parser_allows():
    # at 1500 levels, Python's stack would not hold a walk that recurses
    # once per level
    for depth in (300, 1500):
        f = Eq("x", "x")
        for _ in range(depth):
            f = Not(f)
        assert evaluate(grid(1, 2), None, f, {"x": 0}) == (depth % 2 == 0)
        # each level's inner formula is taken once per row, not once per
        # q: otherwise this takes 2^depth steps
        g = EdgeAtom("x", "y")
        for _ in range(depth):
            g = ExistsV("q", And(Eq("q", "y"), g))
        lib = PredicateLibrary()
        lib.define("p", ("x", "y"), g)
        assert materialize(grid(1, 2), lib, "p") == {(0, 1), (1, 0)}
        assert evaluate(grid(1, 3), lib, g, {"x": 1, "y": 2})


def test_set_cap_enforced():
    G = grid(5, 5)
    with pytest.raises(SetQuantifierCapError):
        evaluate(G, None, parse_formula("exists X. true"), set_cap=10)
    # raised where the quantifier is reached, not where it is compiled
    assert not evaluate(G, None, parse_formula("false & exists X. true"),
                        set_cap=10)


def test_set_cap_is_reached_only_from_a_live_branch():
    lib = parse_library("def p(x, y) := E(x, y) & exists X. true\n"
                        "def q(x, y) := E(x, y) & exists X. X(y)")
    edgeless = LabeledGraph.build(12, [])
    assert materialize(edgeless, lib, "p", set_cap=10) == set()
    path = LabeledGraph.build(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(SetQuantifierCapError):
        materialize(path, lib, "q", set_cap=10)


def test_table_keeps_the_set_contract():
    lib = parse_library("def adj(x, y) := E(x, y)\n"
                        "def mid(x, y, z) := E(x, y) & E(y, z) & x != z\n"
                        "def end(x) := exists! y. E(x, y)\n"
                        "def some() := exists x. end(x)")
    P = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    s = {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
    t = materialize(P, lib, "adj")
    assert isinstance(t, Table)
    assert t == s and s == t and not t != s and t != s - {(0, 1)}
    assert len(t) == 6 and sorted(t) == sorted(s) == list(t)
    assert (1, 2) in t and (0, 2) not in t
    assert (1,) not in t and (1, 9) not in t and "12" not in t
    for other in ({(0, 0)}, frozenset({(0, 1)})):
        for got in (t | other, other | t, t & other, other & t):
            assert type(got) is frozenset
        assert t | other == s | other and other & t == s & other
    assert materialize(P, lib, "mid") == {(0, 1, 2), (2, 1, 0), (1, 2, 3),
                                          (3, 2, 1)}
    assert materialize(P, lib, "end") == {(0,), (3,)}
    assert materialize(P, lib, "some") == {()}
    assert Table.of(s, 2, 4) == t and Table.of(set(), 3, 4) == set()


def test_tables_given_as_plain_sets():
    lib = parse_library("def adj(x, y) := E(x, y)")
    P = LabeledGraph.build(3, [(0, 1), (1, 2)])
    tables = {"adj": {(0, 2), (2, 0)}}  # not the edges of P, on purpose
    f = parse_formula("exists y. (adj(x, y) & adj(y, x))")
    assert evaluate(P, lib, f, {"x": 0}, tables=tables)
    assert not evaluate(P, lib, f, {"x": 1}, tables=tables)
    assert materialize(P, lib, "adj", tables=tables) == {(0, 2), (2, 0)}


# ---------------------------------------------------------------------------
# The plan cache: one plan bound to many graphs
# ---------------------------------------------------------------------------

def _plan_hits():
    return plans.plan.cache_info().hits


def test_formula_hash_is_not_carried_between_processes():
    # the hash is kept on each node and on a library's key; a pickle made
    # where strings hash differently must not bring it along
    text = "exists y. (E(x, y) & red(y))"
    defs = "def p(x, y) := E(x, y) | x = y"
    code = ("import pickle, sys; from msograph.logic import parse_formula, "
            "parse_library; f = parse_formula(%r); hash(f); "
            "lib = parse_library(%r); hash(lib.key); "
            "sys.stdout.buffer.write(pickle.dumps((f, lib)))" % (text, defs))
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True).stdout
    f, lib = pickle.loads(out)
    assert f == parse_formula(text) and hash(f) == hash(parse_formula(text))
    assert f in {parse_formula(text)}
    assert lib.key in {parse_library(defs).key}


def test_node_facts_match_the_recursive_walks():
    rng = random.Random(37)
    calls = [("p", "vv"), ("q", "vS")]
    formulas = [_random_formula(rng, rng.randrange(0, 6), ["x", "x_1"],
                                ["S"], calls) for _ in range(200)]
    nodes = [g for f in formulas for g in ref_nodes(f)]
    for kind in (App, TC, ExistsS, ForallS):
        assert any(isinstance(g, kind) for g in nodes), kind
    for f in formulas:
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and hash(copy) == hash(f)
        for g in ref_nodes(f) + ref_nodes(copy):
            assert g.free == ref_free_vars(g) == free_vars(g)
            assert g.calls == ref_calls(g) == app_refs(g)
            assert g.sets == ref_sets(g)


def test_cached_plans_match_reference_on_many_graphs():
    rng = random.Random(31)
    calls = [("p", "vv"), ("q", "vS")]
    for _ in range(40):
        lib = _random_library(rng)
        f = _random_formula(rng, rng.randrange(1, 5), ["x", "x_1"], ["S"],
                            calls)
        hits = _plan_hits()
        for _ in range(10):
            n = rng.randrange(1, 5)
            G = _random_graph(rng, n)  # "red" gets a new mask each time
            valuation = {"x": rng.randrange(n), "x_1": rng.randrange(n),
                         "S": frozenset(v for v in range(n)
                                        if rng.random() < .5)}
            assert evaluate(G, lib, f, valuation) == \
                ref_eval(G, f, valuation, lib)
        assert _plan_hits() >= hits + 9  # one plan, bound ten times


def test_cached_plans_rebind_labels_tc_memos_and_the_set_cap():
    f = parse_formula("exists y. (red(y) & TC[a, b: E(a, b)](x, y))")
    path = LabeledGraph.build(4, [(0, 1), (1, 2)], labels={"red": [2]})
    split = LabeledGraph.build(4, [(0, 1), (2, 3)], labels={"red": [2]})
    moved = LabeledGraph.build(4, [(0, 1), (1, 2)], labels={"red": [3]})
    unlabeled = LabeledGraph.build(4, [(0, 1), (1, 2)])
    for _ in range(2):
        hits = _plan_hits()
        assert evaluate(path, None, f, {"x": 0})
        assert not evaluate(split, None, f, {"x": 0})  # same n, new edges
        assert not evaluate(moved, None, f, {"x": 0})  # same name, new mask
        assert evaluate(moved, None, f, {"x": 3})
        with pytest.raises(EvalError):  # red is no label here
            evaluate(unlabeled, None, f, {"x": 0})
        assert _plan_hits() >= hits + 3
    lib = parse_library("def reach(x, y) := TC[a, b: E(a, b)](x, y)")
    for G in (path, split, path):
        assert materialize(G, lib, "reach") == {
            (s, t) for s in range(4) for t in range(4)
            if ref_eval(G, App("reach", ("s", "t")), {"s": s, "t": t}, lib)}
    g = parse_formula("exists X. (X(x) & red(x))")
    assert evaluate(path, None, g, {"x": 2}, set_cap=4)
    with pytest.raises(SetQuantifierCapError):
        evaluate(path, None, g, {"x": 2}, set_cap=3)
    small = LabeledGraph.build(3, [], labels={"red": [2]})
    assert evaluate(small, None, g, {"x": 2}, set_cap=3)


def test_cached_plans_follow_the_library_and_the_tables():
    P = LabeledGraph.build(3, [(0, 1), (1, 2)])
    f = parse_formula("p(x, y)")
    adjacent = parse_library("def p(x, y) := E(x, y)")
    apart = parse_library("def p(x, y) := x != y & !E(x, y)")
    for _ in range(2):
        assert evaluate(P, adjacent, f, {"x": 0, "y": 1})
        assert not evaluate(P, apart, f, {"x": 0, "y": 1})
        assert evaluate(P, apart, f, {"x": 0, "y": 2})
    lib = PredicateLibrary()
    g = parse_formula("exists y. r(x, y)")
    with pytest.raises(EvalError):
        evaluate(P, lib, g, {"x": 0})
    lib.define("r", ("x", "y"), parse_formula("E(x, y) & x = y"))
    assert not evaluate(P, lib, g, {"x": 0})
    h = parse_formula("exists y. adj(x, y)")
    pair = {"adj": Table.of({(0, 1)}, 2, 3)}
    assert evaluate(P, None, h, {"x": 0}, tables=pair)
    hits = _plan_hits()
    with pytest.raises(EvalError):  # arity 2 in h, 1 in the table
        evaluate(P, None, h, {"x": 0}, tables={"adj": Table.of({(0,)}, 1, 3)})
    assert _plan_hits() == hits + 1


def test_equal_libraries_built_apart_share_their_plans():
    text = "def p(x, y) := E(x, y)\ndef q(x, y) := p(y, x) | x = y\n"
    grown = PredicateLibrary()
    for d in parse_library(text).defs:
        grown.define(d.name, d.params, d.body)
    parsed = parse_library(text)
    assert grown.key == parsed.key and hash(grown.key) == hash(parsed.key)
    assert parsed.key != parse_library("def p(x, y) := E(x, y)").key
    P = LabeledGraph.build(3, [(0, 1), (1, 2)])
    f = parse_formula("exists y. q(x, y) & !p(x, y)")
    assert evaluate(P, grown, f, {"x": 1})
    hits = _plan_hits()
    assert evaluate(P, parsed, f, {"x": 1})
    assert _plan_hits() == hits + 1


# ---------------------------------------------------------------------------
# Relativization and the TC encoding
# ---------------------------------------------------------------------------

def test_relativize_matches_induced_subgraph():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 6)
        G = _random_graph(rng, n)
        A = [v for v in range(n) if rng.random() < 0.6]
        f = ExistsV("x", _random_formula(rng, rng.randrange(0, 3), ["x"], []))
        while _mentions_tc(f):
            f = ExistsV("x", _random_formula(rng, rng.randrange(0, 3),
                                             ["x"], []))
        lhs = evaluate(G, None, relativize(f, "X"), {"X": frozenset(A)})
        rhs = evaluate(induced_subgraph(G, A), None, f)
        assert lhs == rhs


def _mentions_tc(f):
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, TC):
            return True
        if isinstance(g, (Not, ExistsV, ForallV, ExistsS, ForallS)):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += [g.left, g.right]
    return False


def test_relativize_rejects_tc_and_clashes():
    with pytest.raises(ValueError):
        relativize(parse_formula("TC[a,b: E(a,b)](x, y)"), "X")
    with pytest.raises(ValueError):
        relativize(parse_formula("exists x. X(x)"), "X")


# The recursive rebuilds that substitute and relativize replaced: the
# oracles of the rebuilds on a stack.

def ref_substitute(f: Formula, mapping: dict) -> Formula:
    if not mapping:
        return f
    def s(name):
        return mapping.get(name, name)
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, EdgeAtom):
        return EdgeAtom(s(f.x), s(f.y))
    if isinstance(f, Eq):
        return Eq(s(f.x), s(f.y))
    if isinstance(f, SetAtom):
        return SetAtom(s(f.set_name), s(f.x))
    if isinstance(f, App):
        return App(f.name, tuple(s(a) for a in f.args))
    if isinstance(f, Not):
        return Not(ref_substitute(f.body, mapping))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(ref_substitute(f.left, mapping),
                       ref_substitute(f.right, mapping))
    if isinstance(f, (ExistsV, ForallV, ExistsS, ForallS)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        return type(f)(f.var, ref_substitute(f.body, inner))
    if isinstance(f, TC):
        inner = {k: v for k, v in mapping.items() if k not in (f.u, f.v)}
        return TC(f.u, f.v, ref_substitute(f.body, inner), s(f.a), s(f.b))
    raise TypeError(f"unknown node {f!r}")


def ref_relativize(f: Formula, X: str) -> Formula:
    def guard(Z):
        w = fresh_var("w", {Z, X})
        return ForallV(w, Implies(SetAtom(Z, w), SetAtom(X, w)))
    if isinstance(f, (TrueF, FalseF, EdgeAtom, Eq, SetAtom)):
        return f
    if isinstance(f, App):
        if len(f.args) == 1:
            return f
        raise ValueError("relativization is defined on the graph vocabulary only")
    if isinstance(f, TC):
        raise ValueError("relativization does not support the TC primitive")
    if isinstance(f, Not):
        return Not(ref_relativize(f.body, X))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(ref_relativize(f.left, X), ref_relativize(f.right, X))
    if isinstance(f, ExistsV):
        return ExistsV(f.var, And(SetAtom(X, f.var), ref_relativize(f.body, X)))
    if isinstance(f, ForallV):
        return ForallV(f.var, Implies(SetAtom(X, f.var),
                                      ref_relativize(f.body, X)))
    if isinstance(f, ExistsS):
        return ExistsS(f.var, And(guard(f.var), ref_relativize(f.body, X)))
    if isinstance(f, ForallS):
        return ForallS(f.var, Implies(guard(f.var), ref_relativize(f.body, X)))
    raise TypeError(f"unknown node {f!r}")


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e)


def test_substitute_matches_the_recursive_rebuild():
    rng = random.Random(23)
    # old names from the binder pools, so that binders shadow them, and
    # new names both fresh and taken
    olds = VERTEX_NAMES + SET_NAMES
    news = ("z", "x", "x_2", "T", "S", "S_2")
    calls = (("p", "vv"), ("q", "vS"))
    for _ in range(400):
        f = _random_formula(rng, rng.randrange(0, 6), ["x", "y"], ["S"],
                            calls)
        mapping = {old: rng.choice(news) for old in olds
                   if rng.random() < 0.4}
        got = substitute(f, mapping)
        assert got == ref_substitute(f, mapping), (f, mapping)
        assert got.free == ref_free_vars(got)


def test_relativize_matches_the_recursive_rebuild():
    rng = random.Random(29)
    errors = 0
    for _ in range(400):
        calls = (("p", "vv"),) if rng.random() < 0.2 else ()
        f = _random_formula(rng, rng.randrange(0, 6), ["x"], ["S"], calls)
        want = _outcome(ref_relativize, f, "X")
        assert _outcome(relativize, f, "X") == want, f
        errors += not isinstance(want, Formula)
    assert 0 < errors < 400


def test_substitute_and_relativize_on_formulas_too_deep_to_recurse():
    chain = Eq("x", "y")
    for _ in range(1500):
        chain = Not(chain)
    nested = Eq("x", "y")
    for i in range(1500):
        nested = ForallS("S", ExistsV("z", nested)) if i % 2 else Not(nested)
    for f in (chain, nested):
        renamed = substitute(f, {"x": "y"})
        assert renamed.free == {"y"}
        assert substitute(renamed, {"y": "x"}) == substitute(f, {"y": "x"})
    assert relativize(chain, "X") == chain  # nothing to guard
    assert relativize(nested, "X").free == {"x", "y", "X"}


def test_tc_naive_encoding_agrees_with_primitive():
    rng = random.Random(19)
    body = parse_formula("E(a, b)")
    prim = parse_formula("TC[a, b: E(a, b)](s, t)")
    naive = tc_naive_encoding("a", "b", body, "s", "t")
    for _ in range(15):
        n = rng.randrange(1, 8)
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.4])
        for s in range(n):
            for t in range(n):
                va = {"s": s, "t": t}
                assert evaluate(G, None, prim, va) == \
                    evaluate(G, None, naive, va)
