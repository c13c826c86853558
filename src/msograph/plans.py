"""Formula plans: a formula is compiled once per shape and bound to
each graph it is evaluated on.

A *plan* does not depend on the graph.  It holds the code of the
function a formula compiles to, and of its split functions, and a
recipe for each global that code reads: the adjacency rows, a label's
mask, a table's rows, a callee or a TC body to compile.  ``plan`` keeps
the plans in a fixed-size LRU cache keyed by the formula, its
parameters and row variable, the label names of the graph, the names
that have tables and the library's definitions.  ``Binding.compile``,
the one entry point, builds that key for one graph and library and runs
the plan's recipes on the graph: it supplies the full row, the set
quantifiers' range under the set cap, label masks, table rows after
their arity is checked, and fresh memos for callees and TC, each
compiled when first bound, so planning one formula never plans another.
Names are resolved while planning and binding: an unassigned variable
or an unknown predicate raises ``EvalError`` before anything is
evaluated.  ``logic`` calls this module and re-exports its errors.
"""

from __future__ import annotations

import functools
from types import CodeType, FunctionType
from typing import Iterable, Optional, Sequence

from .graphs import LabeledGraph
from .syntax import (NO_DEFINITIONS, TC, And, App, Definitions, EdgeAtom,
                     Eq, ExistsS, ExistsV, FalseF, ForallS, ForallV, Formula,
                     Iff, Implies, Not, Or, PredicateLibrary, SetAtom, TrueF,
                     is_set_var)
from .table import Table, bits


class EvalError(ValueError):
    pass


class SetQuantifierCapError(EvalError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"set quantifier over a {n}-vertex graph exceeds the cap {cap}")


# Evaluation is set at a time.  A formula becomes the source of one
# Python function, compiled once into the code of its plan and given,
# per graph, globals that a Binding makes from the plan's recipes.  In
# row mode the function takes every free variable but one, y, and
# returns the *row* of the formula over y: the bitmask of the vertices y
# at which it holds.  Atoms are rows (E(x, y) is the adjacency mask of
# x, a label its vertex mask, x = y is 1 << x) and connectives are mask
# operations.  A quantifier over another variable z ORs the rows of its
# body over z, visiting only the z that pass the body's conjuncts
# without y; forall z is !exists z. !.  A subformula without y is tested
# in boolean mode, where exists z. f asks whether the row of f over z is
# not 0 and forall z. f whether it is full.  A conjunction tests its
# pure conjuncts without y first, then takes the others in order and
# stops at the first one whose row is 0, so a set quantifier is reached
# only from a live branch.  The tables of library predicates are rows
# too (Table).  A TC body and a definition called without a table each
# have a plan of their own, planned and bound when the binding first
# binds them and memoized per argument tuple; TC rows are reachability
# masks, built from one successor row per vertex.

# AST levels per generated function; deeper subformulas continue in a
# function of their own, because Python's parser refuses more than 200
# nested brackets and a level can open five.
_MAX_NESTING = 35


def _ident(name: str) -> str:
    """An injective map from variable names (``x'`` is one) to Python
    identifiers that cannot collide with the compiler's ``_`` globals."""
    return "V" + "".join(c if c.isascii() and c.isalnum() else f"_{ord(c):x}_"
                         for c in name)


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _reach_rows(succ: list[int]) -> list[int]:
    """Row p: the bitmask of vertices reachable from p along succ."""
    rows = []
    for start in range(len(succ)):
        seen = frontier = 1 << start
        while frontier:
            new = 0
            for p in bits(frontier):
                new |= succ[p]
            frontier = new & ~seen
            seen |= new
        rows.append(seen)
    return rows


def _transpose(rows: list[int]) -> list[int]:
    cols = [0] * len(rows)
    for p, m in enumerate(rows):
        for q in bits(m):
            cols[q] |= 1 << p
    return cols


def _tc_rows(succ, n: int):
    """The reachability rows of TC as a function of its outer variables,
    computed once per valuation from the successor rows
    ``succ(*outer, u)``."""
    @functools.cache
    def rows(*outer):
        return _reach_rows([succ(*outer, u) for u in range(n)])
    return rows


def _exists(zs: int, row, full: int) -> int:
    """The OR of row(z) over the vertices z in zs, until full."""
    acc = 0
    while zs:
        low = zs & -zs
        acc |= row(low.bit_length() - 1)
        if acc == full:
            break
        zs ^= low
    return acc


def _exists_set(subsets, row, full: int) -> int:
    """The OR of row(Z) over the subsets Z of V(G), until full."""
    acc = 0
    for Z in subsets():
        acc |= row(Z)
        if acc == full:
            break
    return acc


def _pointwise(test, full: int) -> int:
    """The row of the vertices in full at which test holds."""
    return _mask(v for v in bits(full) if test(v))


def _conjuncts(f: Formula, negated: bool = False
               ) -> list[tuple[Formula, bool]]:
    """Literals (g, negated) whose conjunction is f, or !f if negated,
    in the order of f: conjunctions and negated disjunctions and
    implications are spread, double negations dropped."""
    out = []
    stack = [(f, negated)]
    while stack:
        g, neg = stack.pop()
        if isinstance(g, Not):
            stack.append((g.body, not neg))
        elif isinstance(g, And) and not neg:
            stack += [(g.right, False), (g.left, False)]
        elif isinstance(g, Or) and neg:
            stack += [(g.right, True), (g.left, True)]
        elif isinstance(g, Implies) and neg:
            stack += [(g.right, True), (g.left, False)]
        else:
            out.append((g, neg))
    return out


class Plan:
    """The graph-independent half of a compiled formula: the code of its
    function and, for the globals that code reads, one recipe each.  A
    recipe is a tuple: ("A",) the adjacency rows, ("L", name) a label's
    mask, ("R", name, positions, arity) the rows of a table, ("D", body,
    params, row) a memoized callee, ("C", body, params, row) and ("K",
    body, params, row) the reachability rows of a TC body and their
    transpose, ("F", code) a split function."""

    __slots__ = ("code", "recipes")

    def __init__(self, code: CodeType, recipes: tuple):
        self.code = code
        self.recipes = recipes


PLAN_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan(f: Formula, params: tuple[str, ...], row: Optional[str],
         labels: frozenset, tables: frozenset,
         defs: Definitions) -> Plan:
    """The plan of f as a function of params (returning the row over row,
    if given) where the names in labels are labels, those in tables have
    tables and defs are the library's definitions."""
    planner = _Planner(labels, tables, defs)
    code = planner.function(f, params, row)
    return Plan(code, tuple(planner.recipes))


class _Planner:
    """Builds the plan of one function: the source of it and of its split
    functions, and the recipes of the globals they read.  Callees and TC
    bodies are recipes, planned when they are bound."""

    def __init__(self, labels: frozenset, tables: frozenset,
                 defs: Definitions):
        self.labels = labels
        self.tables = tables
        self.lib = defs.by_name
        self.recipes: list[tuple[str, tuple]] = []
        self.names: dict[tuple, str] = {}
        self.pending: list[tuple] = []
        self.temps = 0

    def function(self, f: Formula, params: Sequence[str],
                 row: Optional[str] = None) -> CodeType:
        """The code of a function of params equivalent to f; given a row
        variable, of the function of params that returns the row of f
        over it.  Split functions become recipes."""
        if len(set(params)) < len(params) or row in params:
            raise EvalError(f"repeated variable in {[*params, row]}")
        scope = frozenset(params)
        if row is None:
            expr = f"bool({self.test(f, scope)})"
        elif is_set_var(row):
            raise EvalError(f"row variable {row!r} is a set variable")
        else:
            expr = self.row(f, scope, row)
        src = (f"def _f({', '.join(map(_ident, params))}):\n"
               f"    return {expr}\n")
        namespace: dict = {}
        exec(src, namespace)
        while self.pending:
            g, *split = self.pending.pop()
            self.recipes.append((g, ("F", self.function(*split))))
        return namespace["_f"].__code__

    def _new_global(self, kind: str) -> str:
        self.temps += 1
        return f"_{kind}{self.temps}"

    def _global(self, recipe: tuple) -> str:
        """The global holding the value of the recipe."""
        g = self.names.get(recipe)
        if g is None:
            g = self.names[recipe] = self._new_global(recipe[0])
            self.recipes.append((g, recipe))
        return g

    def pure(self, f: Formula) -> bool:
        """f reaches no set quantifier: it has none and calls no
        definition without a table."""
        return not f.sets and all(name in self.tables or name not in self.lib
                                  for name, _ in f.calls)

    def adjacency(self) -> str:
        return self._global(("A",))

    def vertex(self, name: str, scope: frozenset) -> str:
        if name not in scope:
            raise EvalError(f"unassigned vertex variable {name!r}")
        return _ident(name)

    def label(self, name: str) -> str:
        return self._global(("L", name))

    def set_mask(self, name: str, scope: frozenset) -> str:
        if name in scope:
            return _ident(name)
        if name in self.labels:
            return self.label(name)
        raise EvalError(f"unassigned set variable {name!r}")

    def arg(self, name: str, scope: frozenset) -> str:
        return (self.set_mask(name, scope) if is_set_var(name)
                else self.vertex(name, scope))

    def _split(self, f: Formula, scope: frozenset, row: Optional[str]) -> str:
        """A call of f compiled as a function of its own, once the current
        one is done, so that deep formulas do not deepen the stack."""
        params = sorted(f.free & scope)
        g = self._new_global("F")
        self.pending.append((g, f, params, row))
        return f"{g}({', '.join(map(_ident, params))})"

    # -- boolean mode -------------------------------------------------------

    def test(self, f: Formula, scope: frozenset, depth: int = 0) -> str:
        """Source of the truth value of f; its free variables are in
        scope."""
        if depth == _MAX_NESTING:
            return self._split(f, scope, None)
        d = depth + 1
        if isinstance(f, TrueF):
            return "True"
        if isinstance(f, FalseF):
            return "False"
        if isinstance(f, EdgeAtom):
            return (f"(({self.adjacency()}[{self.vertex(f.x, scope)}] >> "
                    f"{self.vertex(f.y, scope)}) & 1)")
        if isinstance(f, Eq):
            return f"({self.vertex(f.x, scope)} == {self.vertex(f.y, scope)})"
        if isinstance(f, SetAtom):
            return (f"(({self.set_mask(f.set_name, scope)} >> "
                    f"{self.vertex(f.x, scope)}) & 1)")
        if isinstance(f, App):
            return self._app_test(f, scope)
        if isinstance(f, Not):
            return f"(not {self.test(f.body, scope, d)})"
        if isinstance(f, And):
            return (f"({self.test(f.left, scope, d)} and "
                    f"{self.test(f.right, scope, d)})")
        if isinstance(f, Or):
            return (f"({self.test(f.left, scope, d)} or "
                    f"{self.test(f.right, scope, d)})")
        if isinstance(f, Implies):
            return (f"((not {self.test(f.left, scope, d)}) or "
                    f"{self.test(f.right, scope, d)})")
        if isinstance(f, Iff):
            return (f"(bool({self.test(f.left, scope, d)}) == "
                    f"bool({self.test(f.right, scope, d)}))")
        if isinstance(f, ExistsV):
            return f"({self.row(f.body, scope, f.var, d)} != 0)"
        if isinstance(f, ForallV):
            return f"({self.row(f.body, scope, f.var, d)} == _F)"
        if isinstance(f, (ExistsS, ForallS)):
            test = "any" if isinstance(f, ExistsS) else "all"
            body = self.test(f.body, scope | {f.var}, d)
            return f"{test}({body} for {_ident(f.var)} in _S())"
        if isinstance(f, TC):
            return (f"(({self._tc(f, scope)}[{self.vertex(f.a, scope)}] >> "
                    f"{self.vertex(f.b, scope)}) & 1)")
        raise TypeError(f"unknown node {f!r}")

    def _app_test(self, f: App, scope: frozenset) -> str:
        args = [self.arg(a, scope) for a in f.args]
        if f.name in self.tables:
            *key, last = args
            rows = self._table_rows(f, (len(args) - 1,))
            return f"(({rows}{''.join(f'[{a}]' for a in key)} >> {last}) & 1)"
        if f.name in self.lib:
            return f"{self._definition(f, None)}({', '.join(args)})"
        if len(args) == 1 and f.name in self.labels:
            return f"(({self.label(f.name)} >> {args[0]}) & 1)"
        raise EvalError(f"unknown predicate or label {f.name!r}")

    # -- row mode -----------------------------------------------------------

    def row(self, f: Formula, scope: frozenset, y: str,
            depth: int = 0) -> str:
        """Source of the row of f over the vertex variable y: the bitmask
        of the values of y at which f holds.  Every other free variable
        of f is in scope; a binding of y in scope is shadowed."""
        scope = scope - {y}
        if y not in f.free:
            return f"(_F if {self.test(f, scope, depth)} else 0)"
        if depth == _MAX_NESTING:
            return self._split(f, scope, y)
        d = depth + 1
        if isinstance(f, EdgeAtom):
            if f.x == f.y:
                return "0"  # graphs have no loops
            other = f.y if f.x == y else f.x
            return f"{self.adjacency()}[{self.vertex(other, scope)}]"
        if isinstance(f, Eq):
            if f.x == f.y:
                return "_F"
            other = f.y if f.x == y else f.x
            return f"(1 << {self.vertex(other, scope)})"
        if isinstance(f, SetAtom):
            return self.set_mask(f.set_name, scope)
        if isinstance(f, App):
            return self._app_row(f, scope, y)
        if isinstance(f, (Or, Implies)):
            return (f"(_F ^ "
                    f"{self._conjunction(_conjuncts(f, True), scope, y, d)})")
        if isinstance(f, (And, Not)):
            lits = _conjuncts(f)
            if len(lits) > 1:
                return self._conjunction(lits, scope, y, d)
            return self._literal_row(*lits[0], scope, y, d)
        if isinstance(f, Iff):
            return (f"(_F ^ {self.row(f.left, scope, y, d)} ^ "
                    f"{self.row(f.right, scope, y, d)})")
        if isinstance(f, ExistsV):
            return self._exists_row(f.var, _conjuncts(f.body), scope, y, d)
        if isinstance(f, ForallV):  # forall z. f is !exists z. !f
            lits = _conjuncts(f.body, True)
            return f"(_F ^ {self._exists_row(f.var, lits, scope, y, d)})"
        if isinstance(f, (ExistsS, ForallS)):
            body = self.row(f.body, scope | {f.var}, y, d)
            if isinstance(f, ExistsS):
                return f"_ES(_S, lambda {_ident(f.var)}: {body}, _F)"
            return (f"(_F ^ _ES(_S, lambda {_ident(f.var)}: "
                    f"(_F ^ {body}), _F))")
        if isinstance(f, TC):
            return self._tc_row(f, scope, y)
        raise TypeError(f"unknown node {f!r}")

    def _literal_row(self, g: Formula, negated: bool, scope: frozenset,
                     y: str, depth: int) -> str:
        m = self.row(g, scope, y, depth)
        return f"(_F ^ {m})" if negated else m

    def _literal_test(self, g: Formula, negated: bool, scope: frozenset,
                      depth: int) -> str:
        t = self.test(g, scope, depth)
        return f"(not {t})" if negated else t

    def _conjunction(self, lits: list[tuple[Formula, bool]],
                     scope: frozenset, y: str, depth: int) -> str:
        """Source of the row over y of the conjunction of the literals.
        The pure literals without y are tested first; the others follow
        in order, and the first whose row is 0 skips the rest."""
        tests, rest = [], []
        for g, neg in lits:
            ok = y not in g.free and self.pure(g)
            (tests if ok else rest).append((g, neg))
        self.temps += 1
        t = f"_t{self.temps}"
        terms, masks = [], 0
        for g, neg in rest:
            if y in g.free:
                m = self._literal_row(g, neg, scope, y, depth)
                terms.append(f"({t} := {t} & {m})" if masks else
                             f"({t} := {m})")
                masks += 1
            else:
                terms.append(self._literal_test(g, neg, scope, depth))
        if not masks:
            expr = f"(_F if {' and '.join(terms)} else 0)" if terms else "_F"
        elif len(terms) == 1:
            expr = m
        else:
            if y not in rest[-1][0].free:
                terms.append(t)
            expr = f"(({' and '.join(terms)}) or 0)"
        if tests:
            expr = (f"({expr} if " + " and ".join(
                self._literal_test(g, neg, scope, depth) for g, neg in tests)
                + " else 0)")
        return expr

    def _exists_row(self, z: str, lits: list[tuple[Formula, bool]],
                    scope: frozenset, y: str, depth: int) -> str:
        """Source of the row over y of exists z. (the conjunction of lits).
        The pure literals without y give the z to visit, those without z
        are taken once, outside the loop, and the OR over the visited z
        takes the rows of the others."""
        guard, outside, rest = [], [], []
        for g, neg in lits:
            pure = self.pure(g)
            (guard if pure and y not in g.free else
             outside if pure and z not in g.free else rest).append((g, neg))
        zs = self._conjunction(guard, scope - {z}, z, depth) if guard else "_F"
        if rest:
            body = self._conjunction(rest, scope | {z}, y, depth)
            found = f"_E({zs}, lambda {_ident(z)}: {body}, _F)"
        else:
            found = f"(_F if {zs} else 0)"
        if not outside:
            return found
        self.temps += 1
        t = f"_t{self.temps}"
        return (f"(({t} := {self._conjunction(outside, scope, y, depth)}) "
                f"and ({t} & {found}))")

    def _app_row(self, f: App, scope: frozenset, y: str) -> str:
        at = tuple(i for i, a in enumerate(f.args) if a == y)
        key = [self.arg(a, scope) for a in f.args if a != y]
        if f.name in self.tables:
            rows = self._table_rows(f, at)
            return rows + "".join(f"[{a}]" for a in key)
        if f.name in self.lib:
            if len(at) > 1:
                return self._pointwise(f, scope, y)
            return f"{self._definition(f, at[0])}({', '.join(key)})"
        if len(f.args) == 1 and f.name in self.labels:
            return self.label(f.name)
        raise EvalError(f"unknown predicate or label {f.name!r}")

    def _pointwise(self, f: Formula, scope: frozenset, y: str) -> str:
        """The row of f over y built one vertex at a time, for the calls
        and TC bodies whose row cannot be taken whole."""
        return f"_P(lambda {_ident(y)}: {self.test(f, scope | {y})}, _F)"

    # -- tables, definitions and TC -----------------------------------------

    def _table_rows(self, f: App, positions: tuple[int, ...]) -> str:
        """The global holding the rows of f's table over positions."""
        if any(is_set_var(a) for a in f.args):
            raise EvalError(f"table {f.name!r} takes vertex arguments")
        return self._global(("R", f.name, positions, len(f.args)))

    def _definition(self, f: App, at: Optional[int]) -> str:
        """The global holding the compiled definition f calls, memoized
        per argument tuple: a test, or the row over its parameter at
        position at."""
        d = self.lib[f.name]
        if len(d.params) != len(f.args):
            raise EvalError(f"{f.name!r} called with arity {len(f.args)}, "
                            f"defined with {len(d.params)}")
        if at is None:
            params, row = d.params, None
        else:
            params, row = d.params[:at] + d.params[at + 1:], d.params[at]
        return self._global(("D", d.body, params, row))

    def _tc(self, f: TC, scope: frozenset, reverse: bool = False) -> str:
        """Source of the reachability rows of f, or of its reverse, under
        the valuation of its outer variables."""
        outer = sorted((f.body.free - {f.u, f.v}) & scope)
        g = self._global(("K" if reverse else "C", f.body, (*outer, f.u),
                          f.v))
        return f"{g}({', '.join(map(_ident, outer))})"

    def _tc_row(self, f: TC, scope: frozenset, y: str) -> str:
        if y in f.body.free - {f.u, f.v}:
            return self._pointwise(f, scope, y)
        if f.a == f.b:
            self._tc(f, scope)  # bound for its names only
            return "_F"  # the closure is reflexive
        if f.b == y:
            return f"{self._tc(f, scope)}[{self.vertex(f.a, scope)}]"
        return f"{self._tc(f, scope, True)}[{self.vertex(f.b, scope)}]"


class Binding:
    """Formulas compiled for one graph and library.  Every plan bound here
    shares the values of its recipes: label masks, table rows, and one
    memo per callee and per TC body, all fresh for this binding until
    ``forget`` empties the memos."""

    def __init__(self, G: LabeledGraph, lib: Optional[PredicateLibrary],
                 set_cap: int, tables: Optional[dict] = None):
        self.G = G
        self.lib = lib
        self.tables = tables if tables is not None else {}
        self.labels = frozenset(G.labels)
        self.defs = lib.key if lib else NO_DEFINITIONS
        n = G.n

        def subsets():
            if n > set_cap:
                raise SetQuantifierCapError(n, set_cap)
            return range(1 << n)

        self.base = {"_F": (1 << n) - 1, "_S": subsets, "_E": _exists,
                     "_ES": _exists_set, "_P": _pointwise}
        self.made: dict[tuple, object] = {}
        self.memos: list = []

    def compile(self, f: Formula, params: Sequence[str],
                row: Optional[str] = None):
        """The function of params (vertex indices for vertex variables,
        bitmasks for set variables) that tells whether f holds or, given
        a row variable, returns the row of f over it, planned for the
        label names of G, the names that have tables now and the library.
        An unknown name in f or in a callee or TC body it reaches raises
        EvalError here, before anything is evaluated."""
        p = plan(f, tuple(params), row, self.labels, frozenset(self.tables),
                 self.defs)
        g = dict(self.base)
        for name, recipe in p.recipes:
            g[name] = (FunctionType(recipe[1], g) if recipe[0] == "F"
                       else self.make(recipe))
        return FunctionType(p.code, g)

    def make(self, recipe: tuple):
        """The value of a recipe on this graph, made once."""
        if recipe in self.made:
            return self.made[recipe]
        kind, *args = recipe
        if kind == "A":
            value = self.G.adjacency_masks()
        elif kind == "L":
            value = _mask(self.G.labels[args[0]])
        elif kind == "R":
            name, positions, arity = args
            t = self.made.get(("T", name))
            if t is None:
                t = self.tables[name]
                if not isinstance(t, Table):  # plain sets: converted once
                    t = Table.of(t, arity, self.G.n)
                self.made[("T", name)] = t
            if t.arity != arity:
                raise EvalError(f"{name!r} called with arity {arity}, "
                                f"tabulated with {t.arity}")
            value = t.rows(positions)
        elif kind == "D":
            value = functools.cache(self.compile(*args))
        elif kind == "C":
            value = _tc_rows(self.compile(*args), self.G.n)
        else:  # "K"
            rows = self.make(("C", *args))
            value = functools.cache(lambda *val: _transpose(rows(*val)))
        if kind in "DCK":
            self.memos.append(value)
        self.made[recipe] = value
        return value

    def forget(self):
        """Empty the memos, which a caller that passes ever new set masks
        to the same functions would otherwise fill without end."""
        for memo in self.memos:
            memo.cache_clear()


