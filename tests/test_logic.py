"""The evaluator against an independent brute-force reference, plus
parser, library, relativization, and TC-encoding behavior."""

import ast
import functools
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

from msograph import logic, planner, plans, syntax
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
from msograph.syntax import NO_DEFINITIONS, fresh_var, is_set_var
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


def ref_qf(f: Formula) -> bool:
    return not any(isinstance(g, (ExistsV, ForallV, ExistsS, ForallS, TC))
                   for g in ref_nodes(f))


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
        got = evaluate(G, None, f)
        assert type(got) is bool and got == ref_eval(G, f, {})


def test_evaluator_matches_reference_with_sets():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        f = ExistsS("S", _random_formula(rng, rng.randrange(0, 3), [], ["S"]))
        got = evaluate(G, None, f)
        assert type(got) is bool and got == ref_eval(G, f, {})


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
        got = evaluate(G, lib, f, valuation)
        assert type(got) is bool and got == ref_eval(G, f, valuation, lib)
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
    # nested quantifiers whose inner loop skips an outer variable, so the
    # planner spreads the inner literals and lifts the loop into a callee
    "exists a. (exists b. (p(a, {x}) & u(b) & p(b, {y}) & !E(a, b)))",
    "forall a. (p({x}, a) -> exists b. (u(a) & E(a, b) & r(b, {y}, b)))",
    "exists a. (exists b. (u(a) & E(a, {x}) & p(a, b) & "
    "TC[c, d: p(c, d)](b, {y})))",
    "exists a. (p({x}, a) & !(forall b. (E(b, {x}) | !E(a, b) | "
    "b = {y})))",
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


def _lifted(p: plans.Plan) -> list[tuple]:
    """The callee recipes of the plan whose body is a quantifier that the
    planner lifted, not a library definition."""
    return [r for _, r in p.recipes if r[0] == "D" and type(r[1]) is ExistsV]


def test_loops_that_skip_an_outer_variable_are_lifted():
    # the inner loops of the families' libraries that do not read an
    # outer variable each become a memoized callee
    for lib, G, names in (
            (bichain_predicates(), build_Zn(6), ["adjcolumn"]),
            (word_predicates(), build_Hn("121212", 1),
             ["eta_1", "zreach", "vedge"]),
            (power_predicates(), build_Dn(10), ["cliqueord"])):
        binding = plans.Binding(G, lib, logic.DEFAULT_SET_CAP)
        tables = frozenset(binding.tabulate(names))
        for t in binding.tables.values():
            len(t)  # a table makes its rows when they are first read
        for name in names:
            d = lib.by_name[name]
            lifted = _lifted(plans.plan(d.body, d.params[:-1], d.params[-1],
                                        binding.labels, tables, lib.key))
            assert lifted and all(d.params[0] not in r[2]
                                  for r in lifted), name
        assert any(memo.cache_info().currsize for memo in binding.memos)
        binding.forget()  # the memos of the lifted callees too
        assert not any(memo.cache_info().currsize
                       for memo in binding.memos)
    # the prenex sentences of the sentence-check bench, two vertex
    # quantifiers and one set quantifier, and their relativizations call
    # nothing and have no loop to lift, so their plans hold no callee; a
    # row planned for a point lifts as any row does
    rng = random.Random(1)
    for _ in range(200):
        f = _random_sentence(rng)
        for g, params in ((f, ()), (relativize(f, "X"), ("X",))):
            assert all(r[0] != "D" for _, r in plans.plan(
                g, params, None, frozenset(), frozenset(),
                NO_DEFINITIONS).recipes)
    f = parse_formula("exists a. (exists b. (E(a, x) & E(a, b) & E(b, y)))")
    for want in (False, True):
        assert _lifted(plans.plan(f, ("x",), "y", frozenset(), frozenset(),
                                  NO_DEFINITIONS, want))


def _random_sentence(rng):
    """A prenex sentence with one set and two vertex quantifiers in a
    seeded order and polarity, over a seeded depth-2 matrix of E, = and
    membership atoms: the shapes of the sentence-check bench."""
    kinds = ["S", "v", "v"]
    rng.shuffle(kinds)
    vvars, svars, prefix = [], [], []
    for i, kind in enumerate(kinds):
        if kind == "S":
            svars.append(f"S{i}")
            prefix.append((rng.choice((ExistsS, ForallS)), f"S{i}"))
        else:
            vvars.append(f"v{i}")
            prefix.append((rng.choice((ExistsV, ForallV)), f"v{i}"))

    def atom():
        kind = rng.choice(("edge", "edge", "eq", "mem", "mem"))
        if kind == "edge":
            a = EdgeAtom(rng.choice(vvars), rng.choice(vvars))
        elif kind == "eq":
            a = Eq(rng.choice(vvars), rng.choice(vvars))
        else:
            a = SetAtom(svars[0], rng.choice(vvars))
        return Not(a) if rng.random() < 0.15 else a

    def matrix(depth):
        if depth == 0:
            return atom()
        op = rng.choice((And, Or, Implies, Iff))
        return op(matrix(depth - 1), matrix(depth - 1))

    f = matrix(2)
    for quantifier, var in reversed(prefix):
        f = quantifier(var, f)
    return f


def test_a_chain_ands_its_last_row_before_a_test_that_follows_it():
    # two set-quantified rows over y, then a set-quantified test: the
    # chain ANDs the second row in before it tests the third literal
    lib = parse_library("def p(x, y) := (exists S. (S(y) & S(x))) & "
                        "(exists T. (T(y) & x = y)) & exists U. U(x)")
    assert materialize(grid(1, 3), lib, "p") == {(v, v) for v in range(3)}
    rng = random.Random(31)
    orders = set()
    for _ in range(150):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        lits = []  # set-quantified rows over y, and tests without y
        for i in range(rng.randrange(3, 5)):
            S, reads = f"S_{i}", rng.choice((["x", "y"], ["x"]))
            lit = ExistsS(S, And(SetAtom(S, reads[-1]), _random_formula(
                rng, rng.randrange(0, 2), reads, [S])))
            lits.append(Not(lit) if rng.random() < 0.3 else lit)
        orders.add(tuple("y" in free_vars(g) for g in lits))
        body = functools.reduce(And, lits)
        lib = PredicateLibrary()
        lib.define("p", ("x", "y"), body)
        assert materialize(G, lib, "p") == {
            (a, b) for a in range(n) for b in range(n)
            if ref_eval(G, body, {"x": a, "y": b})}, body
        for a, b in itertools.product(range(n), repeat=2):  # points
            assert evaluate(G, None, body, {"x": a, "y": b}) == \
                ref_eval(G, body, {"x": a, "y": b}), body
    assert any(o[-1] is False and o.count(True) >= 2 for o in orders)


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
    for text in ("TC[", "TC[a, b: E(a, b)]("):  # cut off at the end
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


def test_formulas_nested_too_deeply_to_parse_are_syntax_errors():
    text = "(" * 200 + "x = x" + ")" * 200
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula(text)


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
    # in a callee or a TC body too, which the binding plans when it binds
    # them, still before anything is evaluated
    G = grid(2, 2)
    lib = parse_library("def p(x) := nosuch(x)\n"
                        "def q(x, y) := E(x, y) | p(y)")
    for text in ("false & E(x, y)", "false & nosuch(x)",
                 "false & (exists x. Y(x))", "false & p(x)",
                 "false & (exists y. q(x, y))",
                 "false & TC[u, v: nosuch(u)](x, x)",
                 "false & (exists y. TC[u, v: E(u, v) & Y(v)](y, x))"):
        with pytest.raises(EvalError):
            evaluate(G, lib, parse_formula(text), {"x": 0})


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
    assert materialize(LabeledGraph.build(4, []), lib, "mid") == set()


def test_table_rows_at_any_positions_match_the_tuples():
    # the rows over each single position; a plan reads a call with its
    # row variable at repeated positions pointwise (ROW_SHAPES)
    rng = random.Random(41)
    for arity in (1, 2, 3):
        for n in range(5):
            tuples = {t for t in itertools.product(range(n), repeat=arity)
                      if rng.random() < 0.4}

            def rows(prefix=()):
                if len(prefix) == arity - 1:
                    return sum(1 << v for v in range(n)
                               if (*prefix, v) in tuples)
                return [rows((*prefix, i)) for i in range(n)]
            t = Table(n, arity, rows())
            assert t == tuples
            for at in range(arity):
                others = [i for i in range(arity) if i != at]
                for key in itertools.product(range(n), repeat=arity - 1):
                    row = t.rows(at)
                    for a in key:
                        row = row[a]
                    point = dict(zip(others, key))
                    assert row == sum(
                        1 << v for v in range(n) if tuple(
                            point.get(i, v) for i in range(arity))
                        in tuples)


# ---------------------------------------------------------------------------
# The plan cache: one plan bound to many graphs
# ---------------------------------------------------------------------------

def _plan_hits():
    return plans.plan.cache_info().hits


def test_discarded_formulas_leave_a_bounded_sharing_table():
    # equal facts of formulas built apart are one set
    assert parse_formula("E(x, y)").free is parse_formula("y = x").free
    # 10,000 distinct free and calls sets, each dropped with its formula
    for i in range(5000):
        parse_formula(f"p{i}(x{i})")
    info = syntax._shared.cache_info()
    assert info.currsize <= info.maxsize < 10000


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


def test_formula_hashes_are_the_same_in_every_process():
    # with string hashes fixed, a formula and a library key hash alike in
    # every process, so the plan cache and its keys do not change from
    # run to run
    code = ("from msograph.logic import parse_formula, parse_library; "
            "print(hash(parse_formula('exists y. (E(x, y) & red(y))')), "
            "hash(parse_library('def p(x, y) := E(x, y) | x = y').key))")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    outs = [subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]


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
            assert g.qf == ref_qf(g)


def test_deep_formulas_pickle_without_recursion():
    deep = Eq("x", "y")
    for _ in range(1500):
        deep = Not(deep)
    mixed = parse_formula("exists X. (TC[u, v: E(u, v) & p(u, v) & X(v)]"
                          "(x, y) & forall z. (q(z, X) -> !(z = y)))")
    for f in (deep, mixed):
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and hash(copy) == hash(f)
        assert (copy.free, copy.calls, copy.sets, copy.qf) == \
            (f.free, f.calls, f.sets, f.qf)
    assert mixed.calls == {("p", 2), ("q", 2)} and mixed.sets
    node = pickle.loads(pickle.dumps(deep))
    for _ in range(1500):
        assert type(node) is Not and node.free == {"x", "y"}
        node = node.body
    assert node == Eq("x", "y")


# one node of each class, and its repr
ONE_NODE_EACH = [
    (TrueF(), "TrueF()"),
    (FalseF(), "FalseF()"),
    (EdgeAtom("x", "y"), "EdgeAtom(x='x', y='y')"),
    (Eq("x", "y"), "Eq(x='x', y='y')"),
    (SetAtom("X", "x"), "SetAtom(set_name='X', x='x')"),
    (App("p", ("x", "y")), "App(name='p', args=('x', 'y'))"),
    (Not(TrueF()), "Not(body=TrueF())"),
    (And(TrueF(), Eq("x", "y")), "And(left=TrueF(), right=Eq(x='x', y='y'))"),
    (Or(FalseF(), TrueF()), "Or(left=FalseF(), right=TrueF())"),
    (Implies(TrueF(), FalseF()), "Implies(left=TrueF(), right=FalseF())"),
    (Iff(FalseF(), FalseF()), "Iff(left=FalseF(), right=FalseF())"),
    (ExistsV("x", Eq("x", "y")),
     "ExistsV(var='x', body=Eq(x='x', y='y'))"),
    (ForallV("y", TrueF()), "ForallV(var='y', body=TrueF())"),
    (ExistsS("X", SetAtom("X", "x")),
     "ExistsS(var='X', body=SetAtom(set_name='X', x='x'))"),
    (ForallS("X", FalseF()), "ForallS(var='X', body=FalseF())"),
    (TC("u", "v", EdgeAtom("u", "v"), "x", "y"),
     "TC(u='u', v='v', body=EdgeAtom(x='u', y='v'), a='x', b='y')"),
]


def test_one_node_of_each_class_is_listed():
    assert {type(node) for node, _ in ONE_NODE_EACH} == \
        set(Formula.__subclasses__())
    assert len(ONE_NODE_EACH) == 16


@pytest.mark.parametrize("node, text", ONE_NODE_EACH,
                         ids=[type(node).__name__ for node, _ in ONE_NODE_EACH])
def test_nodes_are_immutable_values(node, text):
    cls = type(node)
    fields = tuple(getattr(node, name) for name in cls.__match_args__)
    assert repr(node) == text
    for name in (*cls.__match_args__, "free", "sets"):
        with pytest.raises(AttributeError):
            setattr(node, name, TrueF())
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in cls.__match_args__) == fields
    copy = pickle.loads(pickle.dumps(node))
    assert copy is not node and copy == node and hash(copy) == hash(node)
    assert cls(*fields) == node
    with pytest.raises(TypeError):
        cls(*fields, "z")
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[1:])
    match (len(fields), node):
        case (0, cls()):
            matched = ()
        case (1, cls(a)):
            matched = (a,)
        case (2, cls(a, b)):
            matched = (a, b)
        case (5, cls(a, b, c, d, e)):
            matched = (a, b, c, d, e)
        case _:
            matched = None
    assert matched == fields


def test_the_set_cap_error_pickles():
    error = SetQuantifierCapError(3, 2)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is SetQuantifierCapError
    assert (copy.free, copy.cap, str(copy)) == (3, 2, str(error))
    assert str(copy) == ("set quantifier ranges over the subsets of 3 free "
                         "vertices, more than the cap 2")


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
    # unguarded, X ranges over all 2^n sets; guarded by X(x), over the
    # 2^(n-1) that hold x
    g = parse_formula("exists X. (red(x) & exists z. (z = x & X(z)))")
    assert evaluate(path, None, g, {"x": 2}, set_cap=4)
    with pytest.raises(SetQuantifierCapError):
        evaluate(path, None, g, {"x": 2}, set_cap=3)
    small = LabeledGraph.build(3, [], labels={"red": [2]})
    assert evaluate(small, None, g, {"x": 2}, set_cap=3)
    guarded = parse_formula("exists X. (X(x) & red(x))")
    assert evaluate(path, None, guarded, {"x": 2}, set_cap=3)
    with pytest.raises(SetQuantifierCapError) as raised:
        evaluate(path, None, guarded, {"x": 2}, set_cap=2)
    assert raised.value.free == 3
    assert evaluate(small, None, guarded, {"x": 2}, set_cap=2)


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
    # a tabulated name keys another plan: the table's rows, not a callee
    binding = plans.Binding(P, parse_library("def adj(x, y) := E(x, y)"),
                            logic.DEFAULT_SET_CAP)
    h = parse_formula("exists y. (adj(x, y) & adj(y, x))")
    called = binding.compile(h, ("x",))
    assert binding.tabulate(["adj"]) == {"adj": {(0, 1), (1, 0), (1, 2),
                                                 (2, 1)}}
    read = binding.compile(h, ("x",))
    assert read is not called and binding.compile(h, ("x",)) is read
    assert [read(x) for x in range(3)] == [called(x) for x in range(3)] \
        == [True] * 3


def test_equal_libraries_built_apart_share_their_plans():
    text = "def p(x, y) := E(x, y)\ndef q(x, y) := p(y, x) | x = y\n"
    grown = PredicateLibrary()
    for d in parse_library(text).defs:
        grown.define(d.name, d.params, d.body)
    parsed = parse_library(text)
    assert grown.key == parsed.key and hash(grown.key) == hash(parsed.key)
    assert parsed.key != parse_library("def p(x, y) := E(x, y)").key
    # definitions compare and hash by their fields
    d, e = grown.defs[0], parsed.defs[0]
    assert d == e and hash(d) == hash(e) and d is not e and {d: 1}[e] == 1
    assert d != parsed.defs[1]
    assert repr(d) == ("Definition(name='p', params=('x', 'y'), "
                       "body=EdgeAtom(x='x', y='y'))")
    assert grown == parsed and grown != PredicateLibrary()
    with pytest.raises(AttributeError):
        d.name = "r"
    P = LabeledGraph.build(3, [(0, 1), (1, 2)])
    f = parse_formula("exists y. q(x, y) & !p(x, y)")
    assert evaluate(P, grown, f, {"x": 1})
    misses = plans.plan.cache_info().misses
    assert evaluate(P, parsed, f, {"x": 1})  # f and its callees: all hits
    assert plans.plan.cache_info().misses == misses


# ---------------------------------------------------------------------------
# evaluate reuses one binding per graph, library key and set cap
# ---------------------------------------------------------------------------

def test_a_long_chain_is_planned_once_per_graph():
    # 201 plans do not fit the plan cache, so each new binding of the
    # chain re-plans them all; calls on one graph share one binding
    lib = parse_library("def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, 200)))
    G = grid(1, 3)
    f = parse_formula("p199(x, y)")
    assert evaluate(G, lib, f, {"x": 0, "y": 1})
    for _ in range(2):
        misses = plans.plan.cache_info().misses
        assert evaluate(G, lib, f, {"x": 0, "y": 1})
        assert plans.plan.cache_info().misses == misses


def _mask_of(value) -> int:
    return value if isinstance(value, int) else sum(1 << v for v in value)


def _fresh_outcome(G, lib, f, valuation, set_cap, tabulated):
    """The outcome of f on a binding made for this call alone, with the
    tabulated names of lib tabulated first."""
    binding = plans.Binding(G, lib, set_cap)
    if tabulated:
        binding.tabulate(tabulated)

    def run():
        args = [_mask_of(v) for v in valuation.values()]
        return binding.compile(f, list(valuation))(*args)
    return _outcome(run)


def test_a_reused_binding_agrees_with_a_fresh_one():
    rng = random.Random(53)
    calls = [("p", "vv"), ("q", "vS"), ("r", "v")]
    graphs = [_random_graph(rng, rng.randrange(1, 5)) for _ in range(3)]
    libs = [_random_library(rng) for _ in range(3)]
    G, lib, cap = graphs[0], libs[0], 22
    reused = 0
    seen = set()
    for i in range(600):
        if rng.random() < 0.2:
            G = rng.choice(graphs)
        if rng.random() < 0.2:
            lib = rng.choice(libs + [None])
        if rng.random() < 0.1:
            cap = rng.choice((22, 2))
        if lib is not None and "r" not in lib and rng.random() < 0.05:
            # the same library object, with other definitions
            lib.define("r", ("x",), _random_formula(
                rng, rng.randrange(0, 3), ["x"], [], calls[:1]))
        n = G.n
        f = _random_formula(rng, rng.randrange(1, 4), ["x", "x_1"], ["S"],
                            calls)
        S = frozenset(v for v in range(n) if rng.random() < .5)
        valuation = {"x": rng.randrange(n), "x_1": rng.randrange(n),
                     "S": rng.choice((S, _mask_of(S)))}
        # p tabulated at the full cap, where tabulating it cannot raise,
        # against p called on the reused binding
        tabulated = ()
        if lib is not None and rng.random() < 0.15 and cap == 22:
            tabulated = ("p",)
        last = logic._last and logic._last[0]
        got = _outcome(lambda: evaluate(G, lib, f, valuation, set_cap=cap))
        reused += logic._last[0] is last
        assert got == _fresh_outcome(G, lib, f, valuation, cap, tabulated), f
        if type(got) is bool:
            assert got == ref_eval(G, f, {**valuation, "S": S}, lib), f
        else:
            seen.add(got[0])
        if i % 10 == 0:  # resolved and capped before evaluation, as ever
            with pytest.raises(EvalError):
                evaluate(G, lib, parse_formula("false & nosuch(x)"),
                         {"x": 0}, set_cap=cap)
            g = parse_formula("exists X. exists z. (z = x & X(z))")
            with pytest.raises(SetQuantifierCapError):
                evaluate(G, lib, g, {"x": 0}, set_cap=n - 1)
            assert evaluate(G, lib, g, {"x": 0}, set_cap=n)
            guarded = parse_formula("exists X. X(x)")  # n - 1 free vertices
            assert evaluate(G, lib, guarded, {"x": 0}, set_cap=n - 1)
            if n > 1:
                with pytest.raises(SetQuantifierCapError):
                    evaluate(G, lib, guarded, {"x": 0}, set_cap=n - 2)
    assert reused > 200
    assert seen == {EvalError, SetQuantifierCapError}


def test_memos_of_a_reused_binding_hold_what_one_call_leaves():
    lib = parse_library("def q(y, S) := exists z. (S(z) & E(y, z))")
    f = parse_formula("exists y. (q(y, S) & TC[a, b: E(a, b) & S(b)](x, y))")
    G = grid(2, 3)

    def held(binding):
        return sum(memo.cache_info().currsize for memo in binding.memos)
    for S in range(1 << G.n):
        one = plans.Binding(G, lib, logic.DEFAULT_SET_CAP)
        want = bool(one.compile(f, ("S",), "x", True)(S, 1) & 1)  # bit 0 alone
        S_set = frozenset(v for v in range(G.n) if S >> v & 1)
        assert evaluate(G, lib, f, {"x": 0, "S": S}) == want == \
            ref_eval(G, f, {"x": 0, "S": S_set}, lib)
        binding = logic._last[0]
        assert binding.G is G and held(binding) == held(one) > 0
    # the store is bounded; a function it dropped is made again
    first = parse_formula("exists z0. (E(x, z0) & S(z0))")
    bound = plans.PLAN_CACHE_SIZE + _values_of_one_compile(G, first,
                                                           ("x", "S"))
    for i in range(3 * plans.PLAN_CACHE_SIZE):
        g = parse_formula(f"exists z{i}. (E(x, z{i}) & S(z{i}))")
        assert evaluate(G, lib, g, {"x": 0, "S": 0b10})
        assert logic._last[0] is binding
        assert len(binding.made) <= bound
        assert len(logic._last[2]) <= plans.PLAN_CACHE_SIZE
    assert evaluate(G, lib, first, {"x": 0, "S": 0b10})
    # at many points under one set mask, the row of a formula is kept
    # for the last n tuples of the other vertices only
    g = parse_formula("TC[a, b: E(a, b) & S(b)](w, x) & E(x, y)")
    for w in range(G.n):
        for y in range(G.n):
            for x in range(G.n):
                valuation = {"w": w, "y": y, "x": x, "S": 0b110111}
                assert evaluate(G, lib, g, valuation) == ref_eval(
                    G, g, {**valuation, "S": {0, 1, 2, 4, 5}}, lib)
    rows = logic._last[2][(g, ("w", "y", "x", "S"))]
    assert rows.cache_info().maxsize == rows.cache_info().currsize == G.n
    assert rows.cache_info().hits == G.n ** 3 - G.n ** 2 - 1


def _values_of_one_compile(G, f, params):
    """How many values compiling f alone puts in a fresh binding's store."""
    one = plans.Binding(G, None, logic.DEFAULT_SET_CAP)
    one.compile(f, params)
    return len(one.made)


def test_ever_new_formulas_keep_a_reused_binding_bounded():
    G = grid(3, 3)
    bound = plans.PLAN_CACHE_SIZE + _values_of_one_compile(
        G, parse_formula("TC[a, b: E(a, b)](x, y)"), ("x", "y"))
    for i in range(3 * plans.PLAN_CACHE_SIZE):
        f = parse_formula(f"TC[a_{i}, b: E(a_{i}, b)](x, y)")
        assert evaluate(G, None, f, {"x": 0, "y": 8})
    binding = logic._last[0]
    assert binding.G is G
    assert len(binding.made) <= bound
    gc.collect()  # the functions of a cleared store, and their memos
    assert 0 < len(binding.memos) <= len(binding.made)


def test_set_ranges_list_each_allowed_set_once_in_ascending_order():
    rng = random.Random(67)
    empty = 0
    for n in range(7):
        base = plans.Binding(LabeledGraph.build(n, []), None, 22).base
        S, N = base["_S"], base["_N"]
        full = (1 << n) - 1
        assert isinstance(S(), range) and list(S()) == list(S(full, 0, 0))
        assert N() and N(full) and N(full, 0, 0)  # the empty set, at least
        for _ in range(40):
            within = rng.choice((full, rng.getrandbits(n)))
            must = rng.choice((0, rng.getrandbits(n) & rng.getrandbits(n)))
            forbid = rng.choice((0, rng.getrandbits(n)))
            allowed = within & ~forbid
            want = [Z for Z in range(full + 1)
                    if Z & must == must and not Z & ~allowed]
            assert list(S(within, must, forbid)) == want
            # _N says whether the range is empty without listing it
            assert N(within, must, forbid) is bool(want)
            empty += not want
    assert empty > 20


def test_bindings_of_one_size_and_cap_share_their_helpers():
    P = LabeledGraph.build(9, [(v, v + 1) for v in range(8)])
    base = plans.Binding(grid(3, 3), None, 4).base
    assert plans.Binding(P, None, 4).base is base
    low = plans.Binding(P, None, 2).base
    assert low is not base and low["_F"] == base["_F"] == (1 << 9) - 1
    for helpers, cap in ((base, 4), (low, 2)):
        with pytest.raises(SetQuantifierCapError) as exc:
            helpers["_S"]()  # all 9 vertices free
        assert (exc.value.free, exc.value.cap) == (9, cap)


def test_an_empty_range_is_empty_under_any_cap():
    G = grid(3, 3)
    full = (1 << G.n) - 1
    base = plans.Binding(G, None, 0).base
    S, N = base["_S"], base["_N"]
    for v in range(G.n):
        # Z(v) & !Z(v): no set, so no free vertex to count
        assert list(S(full, 1 << v, 1 << v)) == []
        assert not N(full, 1 << v, 1 << v)
        # Z(v) & Z within {v}: one set, and no free vertex
        assert list(S(1 << v, 1 << v)) == [1 << v] and N(1 << v, 1 << v)
        for made in (S, N):  # Z(v) alone: 8 free vertices
            with pytest.raises(SetQuantifierCapError):
                made(full, 1 << v)


def test_forget_empties_a_live_callee_memo():
    lib = parse_library("def near(x, S) := exists z. (E(x, z) & S(z))")
    binding = plans.Binding(grid(3, 3), lib, logic.DEFAULT_SET_CAP)
    binding.forget()  # nothing memoized yet
    fn = binding.compile(parse_formula("near(x, S)"), ("x", "S"))
    assert fn(0, 0b10) and not fn(0, 0b100)
    (memo,) = binding.memos
    assert memo.cache_info().currsize == 2
    binding.forget()
    assert memo.cache_info().currsize == 0
    assert fn(0, 0b10)  # recomputed, not lost
    assert memo.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# evaluate at a point: the memoized row over the last vertex variable
# ---------------------------------------------------------------------------

def _capped(fn):
    """fn's result, or None if it reaches a set quantifier over the cap."""
    try:
        return fn()
    except SetQuantifierCapError:
        return None


def test_a_point_is_read_from_the_row_of_the_last_vertex_variable():
    rng = random.Random(89)
    calls = [("p", "vv"), ("q", "vS")]
    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 6)
        G = _random_graph(rng, n)
        lib = rng.choice((None, _random_library(rng)))
        vvars = rng.sample(VERTEX_NAMES, rng.randrange(1, 4))
        svars = rng.sample(SET_NAMES, rng.randrange(0, 2))
        names = vvars + svars
        rng.shuffle(names)
        row = [v for v in names if not is_set_var(v)][-1]
        i = names.index(row)
        # a valuated vertex variable, the row variable too, may be unused
        used = [v for v in vvars if len(vvars) == 1 or rng.random() < .8]
        f = _random_formula(rng, rng.randrange(1, 5), used or vvars, svars,
                            calls if lib else ())
        if rng.random() < 0.25:  # f binds the row variable again inside
            f = rng.choice((And, Or))(f, ExistsV(row, _random_formula(
                rng, rng.randrange(0, 2), [row], svars)))
            seen.add("bound again")
        if row not in free_vars(f):
            seen.add("row not free")
        cap = rng.choice((22, 3, 1, 0))
        S = frozenset(v for v in range(n) if rng.random() < .5)
        for j in range(4):  # points of one graph share a binding
            valuation = {name: S if is_set_var(name) else rng.randrange(n)
                         for name in names}
            args = [_mask_of(v) for v in valuation.values()]
            rows = _capped(lambda: plans.Binding(G, lib, cap).make(
                ("D", f, (*names[:i], *names[i + 1:]), row))(
                    *args[:i], *args[i + 1:]) >> args[i] & 1)
            point = _capped(lambda: plans.Binding(G, lib, cap).compile(
                f, names)(*args))
            got = _capped(lambda: evaluate(G, lib, f, valuation,
                                           set_cap=cap))
            assert got is None or type(got) is bool
            want = ref_eval(G, f, valuation, lib)
            for answer in (rows, point, got):
                assert answer is None or bool(answer) == want, f
            # evaluate answers every point that the full row or the
            # boolean plan answers: its one-bit row reaches no set
            # quantifier that either of them skips
            if rows is not None or point is not None:
                assert got is not None, f
            # the first call runs the one-bit row, a later one at
            # another point the full row
            seen.add(("both" if rows is not None and point is not None else
                      "row only" if rows is not None else
                      "point only" if point is not None else
                      "neither" if got is None else "one bit only",
                      "first" if j == 0 else "later"))
    assert seen == {"bound again", "row not free"} | {
        (answered, call) for answered in ("both", "point only", "neither")
        for call in ("first", "later")}


def test_a_row_skips_the_set_quantifier_that_an_atom_decides():
    # the row path answers here itself: without the short-circuit it
    # would hit the cap and leave the answer to the point plan
    f = parse_formula("(exists S. S(x)) | x = x")
    G = grid(1, 3)
    assert plans.Binding(G, None, 1).compile(f, (), "x")() == 0b111
    assert evaluate(G, None, f, {"x": 0}, set_cap=1)  # the point
    assert evaluate(G, None, f, {"x": 1}, set_cap=1)  # the row
    assert logic._last[2][(f, ("x",))].cache_info().currsize == 1


def test_a_point_the_row_cannot_reach_under_the_cap_still_answers():
    # the full row over y reaches the set quantifier at y = 1; the row
    # that wants bit 0 alone stops at x = y, which holds there
    G = grid(5, 6)
    f = parse_formula("x = y | exists S. E(x, y)")
    row = plans.Binding(G, None, logic.DEFAULT_SET_CAP).compile(
        f, ("x",), "y", True)
    with pytest.raises(SetQuantifierCapError):
        row(0, (1 << G.n) - 1)
    assert row(0, 0b1) & 0b1
    with pytest.raises(SetQuantifierCapError):
        row(0, 0b10)
    assert evaluate(G, None, f, {"x": 0, "y": 0})  # the one-bit row
    assert logic._last[2][(f, ("x", "y"))] == (0, 0)
    with pytest.raises(SetQuantifierCapError):  # the full row, then bit 1
        evaluate(G, None, f, {"x": 0, "y": 1})
    # the memo of the full row is kept, and each later point falls back
    # to its one-bit row while the full row reaches the cap
    assert callable(logic._last[2][(f, ("x", "y"))])
    assert evaluate(G, None, f, {"x": 0, "y": 0})
    # a point the boolean plan cannot reach: at the point, exists z is
    # the row of its body over z, whose set quantifier is reached once
    # red(z) holds somewhere; the row over x visits z = 0 first, where
    # red(z) fails, and stops there, full
    H = LabeledGraph.build(2, [], labels={"red": [1]})
    g = parse_formula("exists z. (red(z) -> exists S. red(x))")
    with pytest.raises(SetQuantifierCapError):
        plans.Binding(H, None, 0).compile(g, ("x",))(0)
    assert plans.Binding(H, None, 0).compile(g, (), "x")() == 0b11
    assert plans.Binding(H, None, 0).compile(g, (), "x", True)(0b1) & 0b1
    assert evaluate(H, None, g, {"x": 0}, set_cap=0)
    assert logic._last[2][(g, ("x",))] == (0,)


def test_a_reflexive_closure_holds_without_its_body_at_a_point_too():
    G = grid(5, 6)
    f = parse_formula("TC[u, v: exists S. E(u, v)](y, y)")
    binding = plans.Binding(G, None, logic.DEFAULT_SET_CAP)
    assert binding.compile(f, ("y",))(3) is True
    assert binding.compile(f, (), "y")() == (1 << G.n) - 1
    # pointwise, where the closure's body reads the row variable
    g = parse_formula("TC[u, v: exists S. (E(u, v) & S(y))](x, x)")
    assert binding.compile(g, ("x",), "y")(0) == (1 << G.n) - 1
    # the folded closure is still bound, so a name it lacks still raises
    with pytest.raises(EvalError, match="nosuch"):
        binding.compile(parse_formula("TC[u, v: nosuch(u, v)](y, y)"),
                        ("y",))


def test_a_point_tests_literals_without_sets_before_set_quantifiers():
    E2 = LabeledGraph.build(2, [])
    f = parse_formula("(exists S. E(x, y)) & "
                      "exists z. (E(x, z) & forall w. E(z, w))")
    assert not plans.Binding(E2, None, 0).compile(f, ("x", "y"))(0, 1)


def test_a_row_without_sets_comes_before_set_quantifiers_in_the_chain():
    E2 = LabeledGraph.build(2, [])
    f = parse_formula("(exists S. E(x, y)) & "
                      "exists z. (z = y & forall w. E(z, w))")
    assert evaluate(E2, None, f, {"x": 0, "y": 1}, set_cap=0) is False
    assert not plans.Binding(E2, None, 0).compile(f, ("x", "y"))(0, 1)
    assert plans.Binding(E2, None, 0).compile(f, ("x",), "y")(0) == 0
    for x, y in ((1, 0), (1, 1)):  # later points, read from rows
        assert evaluate(E2, None, f, {"x": x, "y": y}, set_cap=0) is False


def test_a_point_asked_once_runs_the_plan_of_the_point(monkeypatch):
    # a set quantifier that S(y) or !S(y) guards at a point: the row that
    # wants bit y alone puts y in or out of S, and stops at the first
    # set, where the bit holds; at x = y it stops before any set, at
    # !(x = y), which is taken out of the loop.  The full row over y has
    # one free vertex more, and stops only once it is full: S(y) makes it
    # full at the first set with the highest vertex, !S(y) never
    G = LabeledGraph.build(12, [])
    visited = []
    evaluate(G, None, parse_formula("true"))  # the binding of G
    helpers = logic._last[0].base
    subsets = helpers["_S"]

    def counted(*args):
        for Z in subsets(*args):
            visited.append(Z)
            yield Z
    monkeypatch.setitem(helpers, "_S", counted)
    for text, row in (("exists S. (S(x) & S(y) & !(x = y))",
                       1 + (1 << G.n - 2)),
                      ("exists S. (S(x) & !S(y) & !(x = y))", 1 << G.n - 1)):
        f = parse_formula(text)
        assert not evaluate(G, None, f, {"y": 4, "x": 4})  # a point x = y
        assert visited == []
        for calls in range(1, 4):
            assert evaluate(G, None, f, {"x": 0, "y": 1})
            assert len(visited) == calls  # one set per call of one point
        assert not evaluate(G, None, f, {"x": 0, "y": 0})
        assert len(visited) == 3 + row  # the row over y, at x = 0
        assert evaluate(G, None, f, {"x": 0, "y": 5})
        assert len(visited) == 3 + row  # read from the kept row
        visited.clear()


def test_a_point_passes_the_bits_it_wants_to_splits_and_callees():
    # E(x, y) & exists S. S(x), continued in a split function past the
    # nesting that one generated function holds, or called as a library
    # predicate: the row asked for one bit passes it on, so it stops at
    # the non-edge before the set quantifier that the full row reaches
    # over the cap
    deep = parse_formula("E(x, y) & exists S. S(x)")
    for _ in range(2 * planner._MAX_NESTING):
        deep = Iff(TrueF(), deep)
    assert any(r[0] == "P" for _, r in plans.plan(
        deep, ("x",), "y", frozenset(), frozenset(), NO_DEFINITIONS,
        True).recipes)
    lib = parse_library("def p(x, y) := E(x, y) & exists S. S(x)")
    G = grid(1, 24)
    for f, lib in ((deep, None), (parse_formula("p(x, y)"), lib)):
        row = plans.Binding(G, lib, logic.DEFAULT_SET_CAP).compile(
            f, ("x",), "y", True)
        with pytest.raises(SetQuantifierCapError):
            row(0, (1 << G.n) - 1)
        assert row(0, 0b100) == 0
        assert evaluate(G, lib, f, {"x": 0, "y": 2}) is False
        with pytest.raises(SetQuantifierCapError):  # the full row, then bit 1
            evaluate(G, lib, f, {"x": 0, "y": 1})
        assert evaluate(G, lib, f, {"x": 0, "y": 3}) is False  # bit 3 alone


def _nested(text: str, levels: int) -> Formula:
    f = parse_formula(text)
    for _ in range(levels):
        f = Iff(TrueF(), f)
    return f


def test_a_split_is_a_plan_shared_by_graphs_with_the_same_labels():
    # the split subformulas are plan recipes, planned once and found in
    # the plan cache when a second graph binds them
    f = _nested("E(x, y) & exists z. E(y, z)", 2 * planner._MAX_NESTING)
    assert evaluate(grid(1, 24), None, f, {"x": 0, "y": 1})
    misses = plans.plan.cache_info().misses
    G = grid(2, 12)
    assert evaluate(G, None, f, {"x": 0, "y": 12})
    assert not evaluate(G, None, f, {"x": 0, "y": 2})
    assert plans.plan.cache_info().misses == misses


def test_an_unknown_name_in_a_split_raises_when_compiled():
    # binding the split plans it, before the caller's function runs
    G = grid(1, 3)
    f = _nested("nosuch(x) & E(x, y)", 2 * planner._MAX_NESTING)
    binding = plans.Binding(G, None, logic.DEFAULT_SET_CAP)
    for params, row in ((("x",), "y"), (("x", "y"), None)):
        with pytest.raises(EvalError):
            binding.compile(f, params, row)
    with pytest.raises(EvalError):  # the false conjunct folds the split
        evaluate(G, None, And(FalseF(), f), {"x": 0, "y": 1})


def test_a_point_builds_its_row_pointwise_at_its_bit_alone(monkeypatch):
    # a TC body that reads the row variable y: the row over y is built
    # one vertex at a time, and a one-bit row tests the wanted vertex only
    f = parse_formula("TC[a, b: E(a, b) & !(b = y)](x, z)")
    G = grid(1, 6)
    evaluate(G, None, parse_formula("true"))  # the binding of G
    helpers = logic._last[0].base
    pointwise = helpers["_P"]
    tested = []

    def counted(test, *want):
        return pointwise(lambda v: tested.append(v) or test(v), *want)
    monkeypatch.setitem(helpers, "_P", counted)
    assert evaluate(G, None, f, {"x": 0, "z": 4, "y": 5})
    assert tested == [5]
    assert not evaluate(G, None, f, {"x": 0, "z": 4, "y": 2})
    assert tested == [5] + list(range(G.n))  # the full row at (0, 4)
    assert evaluate(G, None, f, {"x": 0, "z": 4, "y": 3}) is False
    assert len(tested) == 1 + G.n  # read from the kept row


# ---------------------------------------------------------------------------
# Generated code: its shape, and the order it tests literals in
# ---------------------------------------------------------------------------

def _plan_sources(monkeypatch):
    """The list that every source the planner compiles is appended to."""
    sources = []

    def spy(src, namespace):
        sources.append(src)
        exec(src, namespace)
    monkeypatch.setattr(planner, "exec", spy, raising=False)
    return sources


def _complement(node):
    """e, if node is _F ^ e."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor) \
            and isinstance(node.left, ast.Name) and node.left.id == "_F":
        return node.right
    return None


def _random_qf(rng, vvars, calls=()):
    f = _random_formula(rng, rng.randrange(0, 3), vvars, [], calls)
    while not f.qf:
        f = _random_formula(rng, rng.randrange(0, 3), vvars, [], calls)
    return f


def test_generated_code_has_no_double_complements(monkeypatch):
    sources = _plan_sources(monkeypatch)
    rng = random.Random(41)
    calls = [("p", "vv"), ("q", "vS")]
    for _ in range(300):
        lib = _random_library(rng)
        f = _random_formula(rng, rng.randrange(1, 5), ["x", "x_1"], ["S"],
                            calls)
        for params, row in ((("x", "x_1", "S"), None), (("x", "S"), "x_1")):
            plans.plan.__wrapped__(f, params, row, frozenset({"red"}),
                                   frozenset(), lib.key)
        for d in lib.defs:  # p(x, x') and q(y, S), as rows over x and y
            plans.plan.__wrapped__(d.body, d.params[1:], d.params[0],
                                   frozenset({"red"}), frozenset(), lib.key)
    assert len(sources) > 900
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            inner = _complement(node)
            assert inner is None or _complement(inner) is None, src


def test_quantifier_free_rows_are_plain_mask_algebra(monkeypatch):
    sources = _plan_sources(monkeypatch)
    rng = random.Random(43)
    shapes = set()
    for _ in range(300):
        f = And(_random_qf(rng, ["x", "y"], [("p", "vv")]),
                _random_qf(rng, ["x", "y"], [("p", "vv")]))
        if rng.random() < 0.5:
            f = Not(f) if rng.random() < 0.5 else Or(f.left, f.right)
        lib = parse_library("def p(x, y) := E(x, y)")
        lib.define("t", ("x", "y"), f)
        del sources[:]
        plans.plan.__wrapped__(f, ("x",), "y", frozenset({"red"}),
                               frozenset({"p"}), lib.key)
        (src,) = sources
        nodes = list(ast.walk(ast.parse(src)))
        assert not any(isinstance(n, ast.NamedExpr) for n in nodes), src
        shapes |= {type(n.op) for n in nodes if isinstance(n, ast.BinOp)}
        G = _random_graph(rng, rng.randrange(1, 5))
        assert materialize(G, lib, "t") == {
            (a, b) for a in range(G.n) for b in range(G.n)
            if ref_eval(G, f, {"x": a, "y": b}, lib)}
    assert {ast.BitAnd, ast.BitOr, ast.BitXor} <= shapes


def test_iff_of_equal_sides_folds_in_boolean_mode(monkeypatch):
    sources = _plan_sources(monkeypatch)
    S_x = SetAtom("S", "x")
    plans.plan.__wrapped__(Iff(S_x, S_x), ("x", "S"), None, frozenset(),
                           frozenset(), NO_DEFINITIONS)
    # evaluate applies bool() once; the source returns the test itself
    assert sources == ["def _f(Vx, VS):\n    return True\n"]
    rng = random.Random(59)
    calls = [("p", "vv"), ("q", "vS")]
    folded = 0
    for _ in range(200):
        lib = _random_library(rng)
        g = _random_formula(rng, rng.randrange(0, 3), ["x", "x_1"], ["S"],
                            calls)
        f = rng.choice((And, Or, Iff))(Iff(g, g), _random_formula(
            rng, rng.randrange(0, 3), ["x", "x_1"], ["S"], calls))
        del sources[:]
        plans.plan.__wrapped__(Iff(g, g), ("x", "x_1", "S"), None,
                               frozenset({"red"}), frozenset(), lib.key)
        folded += sources[0].endswith("return True\n")
        plans.plan.__wrapped__(f, ("x", "x_1", "S"), None,
                               frozenset({"red"}), frozenset(), lib.key)
        for src in sources:
            for node in ast.walk(ast.parse(src)):
                if isinstance(node, ast.Compare) and \
                        isinstance(node.ops[0], ast.Eq):
                    assert ast.dump(node.left) != \
                        ast.dump(node.comparators[0]), src
        G = _random_graph(rng, rng.randrange(1, 5))
        valuation = {"x": rng.randrange(G.n), "x_1": rng.randrange(G.n),
                     "S": frozenset(v for v in range(G.n)
                                    if rng.random() < .5)}
        assert evaluate(G, lib, f, valuation) == ref_eval(G, f, valuation, lib)
    assert folded > 150


def _plan_random_formulas(seed: int, count: int = 300):
    """Plan seeded random formulas with calls, a label and sometimes a
    table, as tests and as rows, and the library definitions as rows."""
    rng = random.Random(seed)
    calls = [("p", "vv"), ("q", "vS")]
    for _ in range(count):
        lib = _random_library(rng)
        f = _random_formula(rng, rng.randrange(1, 5), ["x", "x_1"], ["S"],
                            calls)
        tables = rng.choice((frozenset(), frozenset({"p"})))
        for params, row in ((("x", "x_1", "S"), None), (("x", "S"), "x_1")):
            plans.plan.__wrapped__(f, params, row, frozenset({"red"}),
                                   tables, lib.key)
        for d in lib.defs:
            plans.plan.__wrapped__(d.body, d.params[1:], d.params[0],
                                   frozenset({"red"}), tables, lib.key)


def test_brackets_by_precedence_parse_as_full_brackets(monkeypatch):
    sources = _plan_sources(monkeypatch)
    _plan_random_formulas(73)
    lean = sources[:]
    del sources[:]
    # every operand in brackets: the parse that the planner means
    monkeypatch.setattr(planner._Planner, "_at",
                        lambda self, src, level: f"({src})")
    _plan_random_formulas(73)
    assert len(lean) == len(sources) > 900
    for src, full in zip(lean, sources):
        assert ast.dump(ast.parse(src)) == ast.dump(ast.parse(full)), src
    assert sum(map(len, lean)) < sum(map(len, sources))


def test_no_emitted_lambda_or_generator_ignores_its_name(monkeypatch):
    sources = _plan_sources(monkeypatch)
    _plan_random_formulas(79)
    binders = 0
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Lambda):
                (arg,) = node.args.args
                name, body = arg.arg, node.body
            elif isinstance(node, ast.GeneratorExp):
                name, body = node.generators[0].target.id, node.elt
            else:
                continue
            binders += 1
            assert any(isinstance(n, ast.Name) and n.id == name
                       for n in ast.walk(body)), src
    assert binders > 150


def _idle(rng, quantifier, body: Formula) -> Formula:
    """quantifier over a name that body lacks, with a body that reads it
    only in literals the planner folds away."""
    if quantifier in (ExistsV, ForallV):
        v = "v"
        dead = rng.choice((EdgeAtom(v, v), Not(Iff(Eq(v, "x"), Eq(v, "x")))))
    else:
        v = "T"
        dead = Not(Iff(SetAtom(v, "x"), SetAtom(v, "x")))
    return quantifier(v, rng.choice((Or(dead, body), Or(body, dead),
                                     And(Not(dead), body))))


def test_idle_quantifiers_match_the_reference(monkeypatch):
    sources = _plan_sources(monkeypatch)
    rng = random.Random(83)
    quantifiers = (ExistsV, ForallV, ExistsS, ForallS)
    for i in range(300):
        G = _random_graph(rng, rng.randrange(0, 5))
        if i % 5 == 4:
            # exists z. (g & z = y) is the row of g over z: _E(zs, lambda
            # z: 1 << z) is zs itself
            eq = rng.choice((Eq("z", "y"), Eq("y", "z")))
            g = _random_formula(rng, rng.randrange(0, 3), ["x", "z"], ["S"])
            f = ExistsV("z", rng.choice((And(g, eq), And(eq, g))))
        else:
            f = _idle(rng, quantifiers[i % 5], _random_formula(
                rng, rng.randrange(0, 3), ["x", "y"], ["S"]))
        S = frozenset(v for v in range(G.n) if rng.random() < .5)
        test = plans.Binding(G, None, 22).compile(f, ("x", "y", "S"))
        for a in range(G.n):  # boolean mode, and evaluate
            for b in range(G.n):
                valuation = {"x": a, "y": b, "S": S}
                got = evaluate(G, None, f, valuation)
                assert type(got) is bool
                assert got == bool(test(a, b, _mask_of(S))) == \
                    ref_eval(G, f, valuation), f
        # row mode, over y
        fn = plans.Binding(G, None, 22).compile(f, ("x", "S"), "y")
        for a in range(G.n):
            want = sum(1 << b for b in range(G.n)
                       if ref_eval(G, f, {"x": a, "y": b, "S": S}))
            assert fn(a, _mask_of(S)) == want, f
    folded = "\n".join(sources)  # set and vertex quantifiers, folded
    assert folded.count(" if _N(") > 100 and folded.count(" if _F else 0") > 10
    for src in sources:  # no lambda z: 1 << z is left
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Lambda):
                assert ast.dump(node.body) != ast.dump(ast.parse(
                    f"1 << {node.args.args[0].arg}", mode="eval").body), src


def test_idle_quantifiers_on_the_empty_graph():
    E0 = LabeledGraph.build(0, [])
    for text, want in (("exists z. true", False), ("exists Z. true", True),
                       ("forall z. false", True), ("forall Z. false", False),
                       ("exists z. (E(z, z) | true)", False),
                       ("exists Z. forall z. (Z(z) <-> Z(z))", True),
                       ("forall z. (E(z, z) & false)", True),
                       ("exists z. exists Z. (E(z, z) | true)", False)):
        f = parse_formula(text)
        assert evaluate(E0, None, f) is want == ref_eval(E0, f, {}), text
    lib = parse_library("def p(x) := exists z. (E(z, z) | x = x)\n"
                        "def q(x) := exists Z. x = x\n")
    assert materialize(E0, lib, "p") == materialize(E0, lib, "q") == set()


def test_idle_quantifiers_over_an_empty_guarded_range():
    G = grid(3, 3)
    none = parse_formula("exists Z. (Z(x) & !Z(x) & x = x)")
    every = parse_formula("forall Z. ((Z(x) & !Z(x)) -> false)")
    one = parse_formula("exists Z. (Z(x) & (forall w. (Z(w) -> X(w))) "
                        "& x = x)")
    for x in range(G.n):
        for cap in (0, 22):  # an empty range leaves no free vertex
            assert evaluate(G, None, none, {"x": x}, set_cap=cap) is False
            assert evaluate(G, None, every, {"x": x}, set_cap=cap) is True
            assert evaluate(G, None, one, {"x": x, "X": {x}},
                            set_cap=cap) is True
    rows = parse_formula("exists Z. (Z(x) & !Z(x) & E(x, y))")
    guarded = parse_formula("exists Z. (Z(x) & (forall w. (Z(w) -> X(w))) "
                            "& E(x, y))")
    binding = plans.Binding(G, None, 0)
    assert [binding.compile(rows, ("x",), "y")(x) for x in range(G.n)] == \
        [0] * G.n
    adj = G.adjacency_masks()
    assert [binding.compile(guarded, ("x", "X"), "y")(x, 1 << x)
            for x in range(G.n)] == adj


def test_an_idle_set_quantifier_over_the_cap_is_unknown():
    G = grid(2, 3)
    for text in ("exists Z. x = x", "forall Z. x = x",
                 "exists Z. (E(x, y) | (Z(x) & !Z(x)))",
                 "forall Z. (E(x, y) & !(Z(x) & !Z(x)))"):
        f = parse_formula(text)
        val = {"x": 0, "y": 1}
        assert evaluate(G, None, f, val, set_cap=G.n) == ref_eval(G, f, val)
        with pytest.raises(SetQuantifierCapError):  # boolean mode
            evaluate(G, None, f, val, set_cap=G.n - 1)
        fn = plans.Binding(G, None, G.n - 1).compile(f, ("x",), "y")
        with pytest.raises(SetQuantifierCapError):  # row mode
            fn(0)


def test_evaluate_answers_a_bool_through_eval_pred(tmp_path, monkeypatch,
                                                   capsys):
    from msograph import cli
    answers = []

    def spy(*args, **kwargs):
        answers.append(evaluate(*args, **kwargs))
        return answers[-1]
    monkeypatch.setattr(cli, "evaluate", spy)
    g = tmp_path / "p3.json"
    g.write_text(grid(1, 3).to_json())
    lib = tmp_path / "lib.mso"
    lib.write_text("def adj(x, y) := E(x, y)\n"
                   "def some(x) := exists Z. x = x\n")
    for pred, assign, out in (("adj", "x=0, y=1", "true"),
                              ("adj", "x=0, y=2", "false"),
                              ("some", "x=1", "true")):
        assert cli.main(["eval", str(g), "--library", str(lib), "--pred",
                         pred, "--assign", assign]) == 0
        assert capsys.readouterr().out.strip() == out
    assert [type(a) for a in answers] == [bool] * 3


def _beside_a_set_quantifier(rng):
    """A formula in which one set quantifier q sits among quantifier-free
    formulas under connectives, and the function that builds it with
    another formula in the place of q."""
    quantifier = rng.choice((ExistsS, ForallS))
    body = _random_formula(rng, rng.randrange(0, 2), ["x", "y"], ["S"])
    q = quantifier("S", body)
    steps = [(rng.choice((And, Or, Implies, Iff)), _random_qf(rng, ["x", "y"]),
              rng.random() < 0.5, rng.random() < 0.3)
             for _ in range(rng.randrange(1, 4))]

    def build(leaf):
        f = leaf
        for op, atom, left, negated in steps:
            f = op(f, atom) if left else op(atom, f)
            f = Not(f) if negated else f
        return f
    # q with its body under <-> true, where no literal is a guard
    return build(q), build(quantifier("S", Iff(body, TrueF()))), build


def test_an_atom_that_decides_skips_the_set_quantifier_beside_it():
    f = parse_formula("(exists S. S(x)) | x = x")
    assert evaluate(grid(1, 3), None, f, {"x": 0}, set_cap=1)
    rng = random.Random(47)
    seen = set()
    for _ in range(400):
        f, unguarded, build = _beside_a_set_quantifier(rng)
        G = _random_graph(rng, rng.randrange(2, 6))
        val = {"x": rng.randrange(G.n), "y": rng.randrange(G.n)}
        want = ref_eval(G, f, val)
        decided = ref_eval(G, build(TrueF()), val) == \
            ref_eval(G, build(FalseF()), val)
        seen.add(decided)
        if decided:  # no set quantifier is reached, and the answer is exact
            assert evaluate(G, None, f, val, set_cap=1) == want, f
            assert evaluate(G, None, unguarded, val, set_cap=1) == want, f
        else:  # the quantifier is reached: unknown, never a wrong answer
            with pytest.raises(SetQuantifierCapError):
                evaluate(G, None, unguarded, val, set_cap=1)
            # guards may leave at most one free vertex: then it answers
            try:
                assert evaluate(G, None, f, val, set_cap=1) == want, f
                seen.add("guarded")
            except SetQuantifierCapError as e:
                assert e.free > 1
        # rows: where the cap is not hit, the table is exact
        lib = PredicateLibrary()
        lib.define("t", ("x", "y"), f)
        try:
            got = materialize(G, lib, "t", set_cap=1)
        except SetQuantifierCapError:
            continue
        seen.add("rows")
        assert got == {(a, b) for a in range(G.n) for b in range(G.n)
                       if ref_eval(G, f, {"x": a, "y": b})}
    assert seen == {True, False, "rows", "guarded"}


# ---------------------------------------------------------------------------
# Guarded set quantifiers: the range is the sets the guards allow
# ---------------------------------------------------------------------------

def _guard(rng, z, vvars, svars):
    """A literal that confines z: z(v), !z(v), or z within M written in
    one of three ways, M a set variable of svars or the label red.  One
    time in five it is a look-alike that confines nothing, or it goes
    under ! or into a disjunction."""
    kind = rng.choice(("in", "out", "within", "within", "like"))
    if kind in ("within", "like"):
        m = (SetAtom(rng.choice(svars), "w") if svars and rng.random() < .5
             else App("red", ("w",)))
        zw = SetAtom(z, "w")
        if kind == "within":
            g = rng.choice((ForallV("w", Implies(zw, m)),
                            ForallV("w", Or(Not(zw), m)),
                            Not(ExistsV("w", And(zw, Not(m))))))
        else:  # one negation off or in the wrong place
            g = rng.choice((ExistsV("w", Or(Not(zw), m)),
                            Not(ForallV("w", And(zw, Not(m)))),
                            ForallV("w", Or(zw, m)),
                            ForallV("w", Implies(zw, Not(m)))))
    else:
        g = SetAtom(z, rng.choice(vvars))
        g = Not(g) if kind == "out" else g
    if rng.random() < 0.2:
        h = _random_formula(rng, 1, vvars, svars + [z])
        g = Or(g, h) if rng.random() < .5 else Not(And(g, h))
    return g


def _guarded_quantifier(rng, vvars, svars):
    """exists Z or forall Z whose body holds guards of Z among its
    literals, or among those of its negation for forall."""
    guards = [_guard(rng, "Z", vvars, svars)
              for _ in range(rng.randrange(1, 4))]
    rest = _random_formula(rng, rng.randrange(0, 3), vvars, svars + ["Z"])
    lits = guards + [rest]
    rng.shuffle(lits)
    body = functools.reduce(And, lits)
    if rng.random() < 0.5:
        return ExistsS("Z", body)
    return ForallS("Z", rng.choice(
        (Not(body), Implies(functools.reduce(And, guards), rest))))


def test_guarded_set_quantifiers_match_reference():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        f = _guarded_quantifier(rng, ["x", "x_1"], ["S"])
        if rng.random() < 0.3:
            f = rng.choice((And, Or, Iff))(f, _random_formula(
                rng, 1, ["x", "x_1"], ["S"]))
        valuation = {"x": rng.randrange(n), "x_1": rng.randrange(n),
                     "S": frozenset(v for v in range(n) if rng.random() < .5)}
        assert evaluate(G, None, f, valuation) == ref_eval(G, f, valuation), f


def test_guarded_set_quantifiers_match_reference_in_rows():
    # y is the row variable, so a guard on y is not taken; M may be the
    # set S of an outer quantifier
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randrange(1, 5)
        G = _random_graph(rng, n)
        f = _guarded_quantifier(rng, ["x", "y"], ["S"])
        f = rng.choice((ExistsS, ForallS))("S", f)
        lib = PredicateLibrary()
        lib.define("t", ("x", "y"), f)
        assert materialize(G, lib, "t") == {
            (a, b) for a in range(n) for b in range(n)
            if ref_eval(G, f, {"x": a, "y": b})}, f


# (formula, valuation, the free vertices of its range on grid(2,3), or
# None if the guards leave it empty)
CAPPED = (
    ("exists Z. true", {}, 6),
    ("exists Z. (Z(x) | x = x)", {"x": 0}, 6),  # in a disjunction
    ("exists Z. !(Z(x) & Z(y))", {"x": 0, "y": 1}, 6),  # under !
    ("exists Z. (Z(x) & !Z(y))", {"x": 0, "y": 1}, 4),
    ("exists Z. (Z(x) & !Z(y))", {"x": 2, "y": 2}, None),
    ("forall Z. (Z(x) -> Z(y))", {"x": 0, "y": 5}, 4),
    ("forall Z. (Z(x) -> Z(y))", {"x": 3, "y": 3}, None),
    ("exists Z. ((forall w. (Z(w) -> X(w))) & exists v. (Z(v) & E(v, x)))",
     {"x": 4, "X": {0, 1, 3}}, 3),
    ("exists Z. ((forall w. (Z(w) -> X(w))) & Z(x))", {"x": 1, "X": {1, 2}},
     1),
    ("exists Z. ((forall w. (Z(w) -> X(w))) & Z(x))", {"x": 0, "X": {1, 2}},
     None),
    ("forall Z. ((forall w. (Z(w) -> red(w))) -> !Z(x) | E(x, x))",
     {"x": 4}, 1),
    ("forall Z. (!(exists w. (Z(w) & !red(w))) & Z(x) -> "
     "forall w. (Z(w) -> X(w)) -> exists v. (Z(v) & v != x))",
     {"x": 1, "X": {0, 1, 2}}, 1),
)


def test_the_set_cap_counts_the_free_vertices_of_the_range():
    G = grid(2, 3).with_labels({"red": [1, 4]})
    for text, valuation, free in CAPPED:
        f = parse_formula(text)
        want = ref_eval(G, f, _to_env(valuation))
        if free is None:  # an empty range: exact at any cap
            assert evaluate(G, None, f, valuation, set_cap=0) == want, text
            continue
        with pytest.raises(SetQuantifierCapError) as raised:
            evaluate(G, None, f, valuation, set_cap=free - 1)
        assert raised.value.free == free, text
        assert evaluate(G, None, f, valuation, set_cap=free) == want, text
    # a guard on the row variable is not taken
    lib = parse_library("def t(x, y) := exists Z. (Z(y) & !Z(x))")
    with pytest.raises(SetQuantifierCapError) as raised:
        materialize(G, lib, "t", set_cap=4)
    assert raised.value.free == 5
    assert materialize(G, lib, "t", set_cap=5) == {
        (a, b) for a in range(6) for b in range(6) if a != b}


def test_relativized_sentences_over_the_cap_answer_as_on_the_subgraph():
    G = grid(5, 6).with_labels({"red": range(0, 30, 4)})  # over the cap
    f = parse_formula("exists S. ((forall w. (S(w) -> X(w))) & "
                      "(exists v. (X(v) & S(v))))")
    assert evaluate(G, None, f, {"X": {0, 1, 2, 3}})
    with pytest.raises(SetQuantifierCapError):
        evaluate(G, None, parse_formula("exists S. true"))
    rng = random.Random(71)
    tried = 0
    while tried < 30:  # prenex: a set and two vertex quantifiers
        f = _random_formula(rng, rng.randrange(1, 3), ["x", "y"], ["S"])
        prefix = [(rng.choice((ExistsS, ForallS)), "S"),
                  (rng.choice((ExistsV, ForallV)), "x"),
                  (rng.choice((ExistsV, ForallV)), "y")]
        rng.shuffle(prefix)
        for quantifier, var in reversed(prefix):
            f = quantifier(var, f)
        if _mentions_tc(f):
            continue
        tried += 1
        A = rng.sample(range(G.n), 4)
        assert evaluate(G, None, relativize(f, "X"), {"X": set(A)}) == \
            evaluate(induced_subgraph(G, A), None, f), f


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


def _binders(f: Formula) -> set:
    """The names that some quantifier or TC of f binds."""
    out = set()
    for g in ref_nodes(f):
        if isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
            out.add(g.var)
        elif isinstance(g, TC):
            out |= {g.u, g.v}
    return out


def ref_canonical(f: Formula) -> Formula:
    """f with its binders renamed w0, w1, ... (set binders W0, W1, ...)
    in preorder, so that two formulas equal up to the names of their
    binders have equal canonical forms."""
    count = itertools.count()

    def rec(g, env):
        def s(name):
            return env.get(name, name)
        if isinstance(g, (TrueF, FalseF)):
            return g
        if isinstance(g, EdgeAtom):
            return EdgeAtom(s(g.x), s(g.y))
        if isinstance(g, Eq):
            return Eq(s(g.x), s(g.y))
        if isinstance(g, SetAtom):
            return SetAtom(s(g.set_name), s(g.x))
        if isinstance(g, App):
            return App(g.name, tuple(s(a) for a in g.args))
        if isinstance(g, Not):
            return Not(rec(g.body, env))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(rec(g.left, env), rec(g.right, env))
        if isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
            b = f"{'W' if is_set_var(g.var) else 'w'}{next(count)}"
            return type(g)(b, rec(g.body, {**env, g.var: b}))
        u = f"w{next(count)}"
        v = u if g.v == g.u else f"w{next(count)}"
        return TC(u, v, rec(g.body, {**env, g.u: u, g.v: v}), s(g.a), s(g.b))
    return rec(f, {})


def test_substitute_matches_the_recursive_rebuild():
    rng = random.Random(23)
    values = random.Random(31)  # graphs and valuations
    lib = _random_library(random.Random(37))
    # old names from the binder pools, so that binders shadow them, and
    # new names of the same sort, both fresh and taken
    olds = VERTEX_NAMES + SET_NAMES
    news = {False: ("z", "x", "x_2"), True: ("T", "S", "S_2")}
    calls = (("p", "vv"), ("q", "vS"))
    renamed = 0
    for _ in range(400):
        f = _random_formula(rng, rng.randrange(0, 6), ["x", "y"], ["S"],
                            calls)
        mapping = {old: rng.choice(news[is_set_var(old)]) for old in olds
                   if rng.random() < 0.4}
        got = substitute(f, mapping)
        assert substitute(f, mapping) == got  # deterministic
        assert got.free == ref_free_vars(got)
        if _binders(f).isdisjoint(mapping.values()):  # nothing to capture
            assert got == ref_substitute(f, mapping), (f, mapping)
        else:
            renamed += got != ref_substitute(f, mapping)
        # against renaming every binder apart first, which leaves nothing
        # to capture
        assert ref_canonical(got) == ref_canonical(
            ref_substitute(ref_canonical(f), mapping)), (f, mapping)
        # the meaning: got under sigma is f under sigma after the mapping
        n = values.randrange(1, 4)
        G = _random_graph(values, n)
        sigma = {name: frozenset(v for v in range(n) if values.random() < 0.5)
                 if is_set_var(name) else values.randrange(n)
                 for name in (*olds, *news[False], *news[True])}
        assert evaluate(G, lib, got, {k: sigma[k] for k in got.free}) == \
            evaluate(G, lib, f, {k: sigma[mapping.get(k, k)]
                                 for k in f.free}), (f, mapping)
    assert renamed > 0


def test_substitute_renames_a_binder_that_would_capture():
    assert substitute(parse_formula("exists y. E(x, y)"), {"x": "y"}) == \
        parse_formula("exists y_1. E(y, y_1)")
    assert substitute(parse_formula("forall S. (S(x) -> T(x))"),
                      {"T": "S"}) == \
        parse_formula("forall S_1. (S_1(x) -> S(x))")
    # a TC binder is renamed when a new name lands in its body ...
    f = parse_formula("TC[u, v: E(u, v) & E(x, v)](x, u)")
    assert substitute(f, {"x": "u"}) == \
        parse_formula("TC[u_1, v: E(u_1, v) & E(u, v)](u, u)")
    assert substitute(f, {"x": "v", "u": "x"}) == \
        parse_formula("TC[u, v_1: E(u, v_1) & E(v, v_1)](v, x)")
    # ... but not for its arguments, which lie outside its scope
    g = parse_formula("TC[u, v: E(u, v)](x, y)")
    assert substitute(g, {"x": "u", "y": "v"}) == \
        parse_formula("TC[u, v: E(u, v)](u, v)")


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


def test_tc_naive_encoding_with_arguments_named_as_binders():
    # a and b lie outside the scope of u and v, so they may share names
    rng = random.Random(41)
    body = parse_formula("E(u, v) & !red(v)")  # a directed step
    for a, b in (("u", "v"), ("v", "u"), ("u", "u")):
        prim = TC("u", "v", body, a, b)
        naive = tc_naive_encoding("u", "v", body, a, b)
        assert naive.free == prim.free == {a, b}
        for _ in range(10):
            n = rng.randrange(1, 6)
            G = _random_graph(rng, n)
            for s, t in itertools.product(range(n), repeat=2):
                va = {a: s, b: t} if a != b else {a: s}
                assert evaluate(G, None, prim, va) == \
                    evaluate(G, None, naive, va), (a, b)
