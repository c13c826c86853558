"""Evaluation of the MSO dialect on one graph, set at a time, plus
relativization and the pure-MSO encoding of TC.

``evaluate``, ``materialize`` and the interpretations all compile a
formula into a Python function over vertex indices and set bitmasks on
one graph.  A formula with free vertex variables (x̄, y) compiles to a
function of x̄ that returns its *row* over y, the bitmask of every y at
which it holds, and a library predicate is tabulated as a ``Table`` of
such rows, one call per tuple of its leading arguments.  Vertex
quantifiers range over V(G); set quantifiers enumerate subsets of V(G)
and raise ``SetQuantifierCapError`` when reached on a graph larger than
the cap.  TC is a first-class primitive computed by bitset fixpoint,
once per valuation of its outer variables, so formulas built from it
stay polynomial to evaluate.  Names are resolved while compiling: an
unassigned variable or an unknown predicate raises ``EvalError`` before
evaluation.  The syntax lives in ``syntax``; its names are re-exported
here.
"""

from __future__ import annotations

import functools
from collections.abc import Set as AbstractSet
from typing import Iterable, Optional, Sequence

from .graphs import LabeledGraph
from .syntax import (  # re-exported: the dialect's public names
    TC, And, App, Definition, EdgeAtom, Eq, ExistsS, ExistsV, FalseF,
    ForallS, ForallV, Formula, FormulaSyntaxError, Iff, Implies,
    LibraryError, Not, Or, PredicateLibrary, SetAtom, TrueF, all_vars,
    app_refs, free_vars, fresh_var, is_set_var, parse_formula,
    parse_library, subformulas, substitute)
from .table import Table, bits

DEFAULT_SET_CAP = 22


class EvalError(ValueError):
    pass


class SetQuantifierCapError(EvalError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"set quantifier over a {n}-vertex graph exceeds the cap {cap}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
#
# Evaluation is set at a time.  A formula becomes the source of one Python
# function, exec'd against the globals of a _Compiler for one graph.  In
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
# too (Table).  A TC node and a call to a definition without a table
# each get a compiled function of their own, memoized per argument
# tuple; TC rows are reachability masks, built from one successor row
# per vertex.

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


class _Compiler:
    """Compiles formulas over one graph; the generated functions share its
    globals: adjacency, the full row, tables, label masks, compiled
    definitions, TC closures and the loops over vertices and sets."""

    def __init__(self, G: LabeledGraph, lib: Optional[PredicateLibrary],
                 set_cap: int, tables: Optional[dict]):
        self.G = G
        self.lib = lib or PredicateLibrary()
        self.tables = tables if tables is not None else {}
        n = G.n
        full = (1 << n) - 1

        def subsets():
            if n > set_cap:
                raise SetQuantifierCapError(n, set_cap)
            return range(1 << n)

        self.globals: dict = {"_A": G.adjacency_masks(), "_F": full,
                              "_S": subsets, "_E": _exists,
                              "_ES": _exists_set, "_P": _pointwise}
        self.names: dict[tuple, str] = {}
        self.pending: list[tuple] = []
        self.temps = 0

    def function(self, f: Formula, params: Sequence[str],
                 row: Optional[str] = None):
        """A Python function of params equivalent to f; given a row
        variable, the function of params that returns the row of f over
        it."""
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
        exec(src, self.globals, namespace)
        while self.pending:
            g, *split = self.pending.pop()
            self.globals[g] = self.function(*split)
        return namespace["_f"]

    def tabulate(self, d: Definition) -> Table:
        """The table of d, one call of its row function per tuple of its
        leading arguments."""
        n, k = self.G.n, len(d.params)
        if k == 0:
            return Table(n, 0, int(self.function(d.body, ())()))
        fn = self.function(d.body, d.params[:-1], d.params[-1])

        def rows(prefix):
            if len(prefix) == k - 1:
                return fn(*prefix)
            return [rows(prefix + (v,)) for v in range(n)]
        return Table(n, k, rows(()))

    def _new_global(self, kind: str, value) -> str:
        g = f"_{kind}{len(self.globals)}"
        self.globals[g] = value
        return g

    def _global(self, key: tuple, make) -> str:
        """The global holding make(), made once per key."""
        g = self.names.get(key)
        if g is None:
            g = self.names[key] = self._new_global(key[0], make())
        return g

    def vertex(self, name: str, scope: frozenset) -> str:
        if name not in scope:
            raise EvalError(f"unassigned vertex variable {name!r}")
        return _ident(name)

    def label(self, name: str) -> str:
        return self._global(("L", name), lambda: _mask(self.G.labels[name]))

    def set_mask(self, name: str, scope: frozenset) -> str:
        if name in scope:
            return _ident(name)
        if name in self.G.labels:
            return self.label(name)
        raise EvalError(f"unassigned set variable {name!r}")

    def arg(self, name: str, scope: frozenset) -> str:
        return (self.set_mask(name, scope) if is_set_var(name)
                else self.vertex(name, scope))

    def _split(self, f: Formula, scope: frozenset, row: Optional[str]) -> str:
        """A call of f compiled as a function of its own, once the current
        one is done, so that deep formulas do not deepen the stack."""
        params = sorted(free_vars(f) & scope)
        g = self._new_global("F", None)
        self.pending.append((g, f, params, row))
        return f"{g}({', '.join(map(_ident, params))})"

    def pure(self, f: Formula) -> bool:
        """f reaches no set quantifier: it has none and calls no
        definition without a table."""
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, (ExistsS, ForallS)) or (
                    isinstance(g, App) and g.name not in self.tables
                    and g.name in self.lib):
                return False
            stack += subformulas(g)
        return True

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
            return (f"((_A[{self.vertex(f.x, scope)}] >> "
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
        if len(args) == 1 and f.name in self.G.labels:
            return f"(({self.label(f.name)} >> {args[0]}) & 1)"
        raise EvalError(f"unknown predicate or label {f.name!r}")

    # -- row mode -----------------------------------------------------------

    def row(self, f: Formula, scope: frozenset, y: str,
            depth: int = 0) -> str:
        """Source of the row of f over the vertex variable y: the bitmask
        of the values of y at which f holds.  Every other free variable
        of f is in scope; a binding of y in scope is shadowed."""
        scope = scope - {y}
        if y not in free_vars(f):
            return f"(_F if {self.test(f, scope, depth)} else 0)"
        if depth == _MAX_NESTING:
            return self._split(f, scope, y)
        d = depth + 1
        if isinstance(f, EdgeAtom):
            if f.x == f.y:
                return "0"  # graphs have no loops
            other = f.y if f.x == y else f.x
            return f"_A[{self.vertex(other, scope)}]"
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
            ok = y not in free_vars(g) and self.pure(g)
            (tests if ok else rest).append((g, neg))
        self.temps += 1
        t = f"_t{self.temps}"
        terms, masks = [], 0
        for g, neg in rest:
            if y in free_vars(g):
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
            if y not in free_vars(rest[-1][0]):
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
            fv = free_vars(g)
            pure = self.pure(g)
            (guard if pure and y not in fv else
             outside if pure and z not in fv else rest).append((g, neg))
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
        if len(f.args) == 1 and f.name in self.G.labels:
            return self.label(f.name)
        raise EvalError(f"unknown predicate or label {f.name!r}")

    def _pointwise(self, f: Formula, scope: frozenset, y: str) -> str:
        """The row of f over y built one vertex at a time, for the calls
        and TC bodies whose row cannot be taken whole."""
        return f"_P(lambda {_ident(y)}: {self.test(f, scope | {y})}, _F)"

    # -- tables, definitions and TC -----------------------------------------

    def _table_rows(self, f: App, positions: tuple[int, ...]) -> str:
        """The global holding the rows of f's table over positions; a
        plain set of tuples is made a Table once."""
        def table():
            t = self.tables[f.name]
            if not isinstance(t, Table):
                t = Table.of(t, len(f.args), self.G.n)
            return t
        t = self.globals[self._global(("T", f.name), table)]
        if t.arity != len(f.args):
            raise EvalError(f"{f.name!r} called with arity {len(f.args)}, "
                            f"tabulated with {t.arity}")
        if any(is_set_var(a) for a in f.args):
            raise EvalError(f"table {f.name!r} takes vertex arguments")
        return self._global(("R", f.name, positions),
                            lambda: t.rows(positions))

    def _definition(self, f: App, at: Optional[int]) -> str:
        """The global holding the compiled definition f calls, memoized
        per argument tuple: a test, or the row over its parameter at
        position at."""
        d = self.lib.by_name[f.name]
        if len(d.params) != len(f.args):
            raise EvalError(f"{f.name!r} called with arity {len(f.args)}, "
                            f"defined with {len(d.params)}")
        if at is None:
            return self._global(("D", f.name, at), lambda: functools.cache(
                self.function(d.body, d.params)))
        params = d.params[:at] + d.params[at + 1:]
        return self._global(("D", f.name, at), lambda: functools.cache(
            self.function(d.body, params, d.params[at])))

    def _tc(self, f: TC, scope: frozenset, reverse: bool = False) -> str:
        """Source of the reachability rows of f, or of its reverse, under
        the valuation of its outer variables."""
        outer = sorted((free_vars(f.body) - {f.u, f.v}) & scope)
        key = (f.u, f.v, f.body, tuple(outer))
        g = self._global(("C",) + key, lambda: _tc_rows(self.function(
            f.body, outer + [f.u], f.v), self.G.n))
        if reverse:
            rows = self.globals[g]
            g = self._global(("K",) + key, lambda: functools.cache(
                lambda *val: _transpose(rows(*val))))
        return f"{g}({', '.join(map(_ident, outer))})"

    def _tc_row(self, f: TC, scope: frozenset, y: str) -> str:
        if y in free_vars(f.body) - {f.u, f.v}:
            return self._pointwise(f, scope, y)
        if f.a == f.b:
            self._tc(f, scope)  # compiled for its names only
            return "_F"  # the closure is reflexive
        if f.b == y:
            return f"{self._tc(f, scope)}[{self.vertex(f.a, scope)}]"
        return f"{self._tc(f, scope, True)}[{self.vertex(f.b, scope)}]"


Tables = dict[str, AbstractSet[tuple[int, ...]]]


def compile_formula(G: LabeledGraph, lib: Optional[PredicateLibrary],
                    f: Formula, params: Sequence[str], *,
                    set_cap: int = DEFAULT_SET_CAP,
                    tables: Optional[Tables] = None):
    """A Python function of params (vertex indices for vertex variables,
    bitmasks over V(G) for set variables) that tells whether f holds.

    Every other free name of f must be a label of G and every call must
    name a table, a library definition or a label; otherwise EvalError is
    raised here, before anything is evaluated.
    """
    return _Compiler(G, lib, set_cap, tables).function(f, list(params))


def compile_rows(G: LabeledGraph, lib: Optional[PredicateLibrary],
                 f: Formula, params: Sequence[str], *,
                 set_cap: int = DEFAULT_SET_CAP,
                 tables: Optional[Tables] = None):
    """The function of params[:-1] that returns the row of f over the
    vertex variable params[-1]: the bitmask of the vertices at which f
    holds.  Arguments and errors as for ``compile_formula``."""
    *outer, row = params
    return _Compiler(G, lib, set_cap, tables).function(f, outer, row)


def evaluate(G: LabeledGraph, lib: Optional[PredicateLibrary], f: Formula,
             valuation: Optional[dict] = None, *,
             set_cap: int = DEFAULT_SET_CAP,
             tables: Optional[Tables] = None) -> bool:
    """Evaluate f on G under the valuation (vertex vars -> vertex index,
    set vars -> vertex set or bitmask)."""
    valuation = valuation or {}
    fn = compile_formula(G, lib, f, list(valuation), set_cap=set_cap,
                         tables=tables)
    full = (1 << G.n) - 1
    return fn(*((val if isinstance(val, int) else _mask(val)) & full
                if is_set_var(name) else val
                for name, val in valuation.items()))


MAX_MATERIALIZE_ARITY = 3


def _tabulatable(d: Definition) -> bool:
    return len(d.params) <= MAX_MATERIALIZE_ARITY and \
        not any(is_set_var(p) for p in d.params)


def materialize(G: LabeledGraph, lib: PredicateLibrary, name: str, *,
                set_cap: int = DEFAULT_SET_CAP,
                tables: Optional[Tables] = None) -> Table:
    """Full extension of a library predicate over G, computed bottom-up,
    one row per tuple of its leading arguments.

    Tables for the predicate's dependencies are computed first (in library
    order) and reused; pass a ``tables`` dict to keep them across calls.
    A dependency that cannot be tabulated (arity above 3 or set
    parameters) is called through its compiled function instead.
    """
    if name not in lib:
        raise EvalError(f"no definition for {name!r}")
    if not _tabulatable(lib.by_name[name]):
        raise EvalError(
            f"{name!r} has arity above {MAX_MATERIALIZE_ARITY} or set "
            f"parameters and cannot be tabulated; evaluate it pointwise")
    if tables is None:
        tables = {}
    comp = _Compiler(G, lib, set_cap, tables)
    for dep in _dependency_order(lib, name):
        d = lib.by_name[dep]
        if dep not in tables and _tabulatable(d):
            tables[dep] = comp.tabulate(d)
    return tables[name]


def _dependency_order(lib: PredicateLibrary, name: str) -> list[str]:
    """Dependencies of name (inclusive) in library order."""
    wanted = {name}
    for d in reversed(lib.defs):
        if d.name in wanted:
            for ref, _ in app_refs(d.body):
                if ref in lib:
                    wanted.add(ref)
    return [d.name for d in lib.defs if d.name in wanted]


def materialize_all(G: LabeledGraph, lib: PredicateLibrary, *,
                    set_cap: int = DEFAULT_SET_CAP) -> dict[str, Table]:
    """Tables for every tabulatable definition in the library."""
    tables: dict[str, Table] = {}
    for d in lib.defs:
        if _tabulatable(d):
            materialize(G, lib, d.name, set_cap=set_cap, tables=tables)
    return tables


# ---------------------------------------------------------------------------
# Relativization
# ---------------------------------------------------------------------------

def relativize(f: Formula, X: str) -> Formula:
    """Confine all quantifiers of f to the set variable X.

    Vertex quantifiers get guarded by X(z); set quantifiers by Z subset-of
    X.  f must not mention X and must be over the plain graph vocabulary
    (no TC, no library predicate calls).
    """
    if not is_set_var(X):
        raise ValueError(f"{X!r} is not a set variable")
    if X in all_vars(f):
        raise ValueError(f"{X!r} occurs in the formula")
    return _relativize(f, X)


def _subset_guard(Z: str, X: str) -> Formula:
    w = fresh_var("w", {Z, X})
    return ForallV(w, Implies(SetAtom(Z, w), SetAtom(X, w)))


def _relativize(f: Formula, X: str) -> Formula:
    if isinstance(f, (TrueF, FalseF, EdgeAtom, Eq, SetAtom)):
        return f
    if isinstance(f, App):
        if len(f.args) == 1:
            return f  # unary label atom: part of the graph vocabulary
        raise ValueError("relativization is defined on the graph vocabulary only")
    if isinstance(f, TC):
        raise ValueError("relativization does not support the TC primitive")
    if isinstance(f, Not):
        return Not(_relativize(f.body, X))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_relativize(f.left, X), _relativize(f.right, X))
    if isinstance(f, ExistsV):
        return ExistsV(f.var, And(SetAtom(X, f.var), _relativize(f.body, X)))
    if isinstance(f, ForallV):
        return ForallV(f.var, Implies(SetAtom(X, f.var), _relativize(f.body, X)))
    if isinstance(f, ExistsS):
        return ExistsS(f.var, And(_subset_guard(f.var, X), _relativize(f.body, X)))
    if isinstance(f, ForallS):
        return ForallS(f.var, Implies(_subset_guard(f.var, X),
                                      _relativize(f.body, X)))
    raise TypeError(f"unknown node {f!r}")


# ---------------------------------------------------------------------------
# Pure-MSO encoding of the TC primitive
# ---------------------------------------------------------------------------

def tc_naive_encoding(u: str, v: str, body: Formula, a: str, b: str) -> Formula:
    """A set-quantifier sentence equivalent to ``TC[u,v: body](a,b)``.

    (a, b) is in the reflexive-transitive closure iff b belongs to every
    set that contains a and is closed under one body-step.  The body must
    have no free vertex variables besides the binders.
    """
    extra = {w for w in free_vars(body) if not is_set_var(w)} - {u, v}
    if extra:
        raise ValueError(
            f"body has extra free vertex variables {sorted(extra)}")
    avoid = all_vars(body) | {a, b, u, v}
    if a in (u, v) or b in (u, v):
        u2 = fresh_var(u, avoid)
        v2 = fresh_var(v, avoid | {u2})
        body = substitute(body, {u: u2, v: v2})
        u, v = u2, v2
    X = fresh_var("X", avoid).capitalize()
    closed = ForallV(u, ForallV(v, Implies(And(SetAtom(X, u), body),
                                           SetAtom(X, v))))
    return ForallS(X, Implies(And(SetAtom(X, a), closed), SetAtom(X, b)))
