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
the plan's recipes on the graph: it supplies the full row, the ranges
of set quantifiers under the set cap, label masks, table rows after
their arity is checked, and fresh memos for callees and TC, each
compiled when first bound, so planning one formula never plans another.
A set quantifier ranges over the sets its guards allow: its body's
literals Z(v) and !Z(v), for a vertex variable v bound outside it, and
forall w. (Z(w) -> M(w)), for a set variable or label M, fix v in or out
of Z and confine Z to M (for forall Z, the literals of the negated
body).  The set cap bounds the vertices the guards leave free, checked
when the quantifier is reached; an unguarded quantifier leaves all of
V(G) free.
A binding keeps the functions it has made in the one store of its
recipe values, which a compile empties when it holds ``PLAN_CACHE_SIZE``
values, so compiling the same formula again on it costs one lookup.
A binding also owns the tables of its library predicates, which only
``Binding.tabulate`` makes; a compile after it reads their rows in
place of calling the definitions.
Names are resolved while planning and binding: an unassigned variable
or an unknown predicate raises ``EvalError`` before anything is
evaluated.  ``logic`` calls this module and re-exports its errors.
"""

from __future__ import annotations

import functools
import weakref
from types import CodeType, FunctionType
from typing import Iterable, Optional, Sequence

from .graphs import LabeledGraph
from .syntax import (NO_DEFINITIONS, TC, And, App, Definition, Definitions,
                     EdgeAtom, Eq, ExistsS, ExistsV, FalseF, ForallS, ForallV,
                     Formula, Iff, Implies, Not, Or, PredicateLibrary, SetAtom,
                     TrueF, is_set_var)
from .table import Table, bits


class EvalError(ValueError):
    pass


class SetQuantifierCapError(EvalError):
    """A set quantifier was reached whose range has more free vertices
    than the set cap: the answer is unknown."""

    def __init__(self, free: int, cap: int):
        super().__init__(f"set quantifier ranges over the subsets of {free} "
                         f"free vertices, more than the cap {cap}")
        self.free = free
        self.cap = cap

    def __reduce__(self):
        return type(self), (self.free, self.cap)


# Evaluation is set at a time.  A formula becomes the source of one
# Python function, compiled once into the code of its plan and given,
# per graph, globals that a Binding makes from the plan's recipes.  In
# row mode the function takes every free variable but one, y, and
# returns the *row* of the formula over y: the bitmask of the vertices y
# at which it holds.  Atoms are rows (E(x, y) is the adjacency mask of
# x, a label its vertex mask, x = y is 1 << x) and connectives are mask
# operations.  The planner keeps a row as its source and a flag that
# says the row is the complement of that source's value, so a negation
# flips the flag and never nests _F ^ (_F ^ ...): an Or is the
# complement of the conjunction of its negated disjuncts, forall z. f
# is !exists z. !f, and a <-> b is the complement of a ^ b.  A
# quantifier over another variable z ORs the rows of its body over z,
# visiting only the z that pass the body's conjuncts without y.  A
# subformula without y is tested in boolean mode, where exists z. f asks
# whether the row of f over z is not 0 and forall z. f whether it is
# full.
#
# Order.  A literal is *plain* when it is quantifier-free (the node's
# ``qf`` fact) and calls only labels and tables.  A conjunction in row
# mode puts its plain literals first: those without y become a guard,
# and the rows of those with y one mask, (a & b & ~c), with no
# temporary, or (a | b) complemented when every one is a complement.
# Then come the tests of the pure literals without y (no set quantifier
# reached), then the others in their order, each ANDed into a
# temporary, stopping at the first one whose row is 0.  In boolean mode
# a conjunction, disjunction or implication is spread into its literals
# the same way, and the plain ones are tested first, each part in its
# order, so an atom that decides the connective skips the quantified
# literals beside it.  Either way a set quantifier is reached only from
# a live branch.  The constant rows 0 and _F and the constant tests fold
# away.  The tables of library predicates are rows too (Table).  A TC
# body and a definition called without a table each have a plan of
# their own, planned and bound when the binding first binds them and
# memoized per argument tuple; TC rows are reachability masks, built
# from one successor row per vertex.

# AST levels per generated function; deeper subformulas continue in a
# function of their own, because Python's parser refuses more than 200
# nested brackets and a level can open five.
_MAX_NESTING = 35


@functools.lru_cache(maxsize=1024)
def _ident(name: str) -> str:
    """An injective map from variable names (``x'`` is one) to Python
    identifiers that cannot collide with the compiler's ``_`` globals."""
    return "V" + "".join(c if c.isascii() and c.isalnum() else f"_{ord(c):x}_"
                         for c in name)


def _final(src: str, comp: bool) -> str:
    """The source of a row given as its source, or as the source of its
    complement if comp."""
    if not comp:
        return src
    return "0" if src == "_F" else "_F" if src == "0" else f"(_F ^ {src})"


def _negation(test: str) -> str:
    return {"True": "False", "False": "True"}.get(test) or f"(not {test})"


def _group(op: str, terms: list[str]) -> str:
    return terms[0] if len(terms) == 1 else f"({op.join(terms)})"


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


def _exists_set(sets, row, full: int) -> int:
    """The OR of row(Z) over the sets Z, until full."""
    acc = 0
    for Z in sets:
        acc |= row(Z)
        if acc == full:
            break
    return acc


def _submasks(must: int, free: int):
    """must | s for every submask s of free, in ascending order."""
    s = 0
    while True:
        yield must | s
        if s == free:
            return
        s = (s - free) & free


def _all_rows(fn, n: int, depth: int, prefix: tuple[int, ...] = ()):
    """fn at every tuple of depth vertices after prefix, as nested lists
    indexed by the tuple; the last level calls fn directly."""
    if depth == 0:
        return fn(*prefix)
    if depth == 1:
        return [fn(*prefix, v) for v in range(n)]
    return [_all_rows(fn, n, depth - 1, (*prefix, v)) for v in range(n)]


def _pointwise(test, full: int) -> int:
    """The row of the vertices in full at which test holds."""
    return _mask(v for v in bits(full) if test(v))


_CONNECTIVES = (And, Not, Or, Implies)


def _conjuncts(f: Formula, negated: bool = False
               ) -> list[tuple[Formula, bool]]:
    """Literals (g, negated) whose conjunction is f, or !f if negated,
    in the order of f: conjunctions and negated disjunctions and
    implications are spread, double negations dropped."""
    out = []
    stack = [(f, negated)]
    while stack:
        g, neg = stack.pop()
        kind = type(g)
        if kind is Not:
            stack.append((g.body, not neg))
        elif kind is And and not neg:
            stack += [(g.right, False), (g.left, False)]
        elif kind is Or and neg:
            stack += [(g.right, True), (g.left, True)]
        elif kind is Implies and neg:
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
MAX_MATERIALIZE_ARITY = 3


def _tabulatable(d: Definition) -> bool:
    return len(d.params) <= MAX_MATERIALIZE_ARITY and \
        not any(is_set_var(p) for p in d.params)


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
        return not f.sets and self._direct(f)

    def plain(self, f: Formula) -> bool:
        """f is quantifier-free and calls no definition without a table:
        its row is mask algebra on arguments, labels and table rows."""
        return f.qf and self._direct(f)

    def _direct(self, f: Formula) -> bool:
        return not f.calls or all(name in self.tables or name not in self.lib
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
        scope.  Constant parts fold to True or False."""
        if depth == _MAX_NESTING:
            return self._split(f, scope, None)
        d = depth + 1
        kind = type(f)
        if kind is EdgeAtom:
            x, y = self.vertex(f.x, scope), self.vertex(f.y, scope)
            if x == y:
                return "False"  # graphs have no loops
            return f"(({self.adjacency()}[{x}] >> {y}) & 1)"
        if kind is Eq:
            x, y = self.vertex(f.x, scope), self.vertex(f.y, scope)
            return "True" if x == y else f"({x} == {y})"
        if kind is SetAtom:
            return (f"(({self.set_mask(f.set_name, scope)} >> "
                    f"{self.vertex(f.x, scope)}) & 1)")
        if kind in _CONNECTIVES:
            # an And holds if its literals do, an Or if one of theirs
            # fails
            conj = kind is And or kind is Not
            return self._junction(_conjuncts(f, not conj), conj, scope, d)
        if kind is ExistsV or kind is ForallV:
            return self._vertex_test(f, scope, d, False)
        if kind is App:
            return self._app_test(f, scope)
        if kind is TrueF:
            return "True"
        if kind is FalseF:
            return "False"
        if kind is Iff:
            left = self.test(f.left, scope, d)
            right = self.test(f.right, scope, d)
            if left == right:
                return "True"
            if left in ("True", "False"):
                left, right = right, left
            if right in ("True", "False"):
                return left if right == "True" else _negation(left)
            return f"(bool({left}) == bool({right}))"
        if kind is ExistsS or kind is ForallS:  # forall Z. f is !exists Z. !f
            sets, lits = self._set_range(f, scope)
            body = self._junction(lits, True, scope | {f.var}, d)
            found = f"any({body} for {_ident(f.var)} in {sets})"
            return _negation(found) if kind is ForallS else found
        if kind is TC:
            return (f"(({self._tc(f, scope)}[{self.vertex(f.a, scope)}] >> "
                    f"{self.vertex(f.b, scope)}) & 1)")
        raise TypeError(f"unknown node {f!r}")

    def _junction(self, lits: list[tuple[Formula, bool]], conj: bool,
                  scope: frozenset, depth: int) -> str:
        """Source of the truth value of the conjunction of the literals,
        or if not conj of the disjunction of their negations.  The plain
        literals are tested first, each part in its order."""
        unit, zero = ("True", "False") if conj else ("False", "True")
        terms, then = [], []
        for g, neg in lits:
            t = self._literal_test(g, neg if conj else not neg, scope, depth)
            if t != unit:
                (terms if self.plain(g) else then).append(t)
        terms += then
        if zero in terms or not terms:
            return zero if terms else unit
        if len(terms) == 1:
            return terms[0]
        return f"({(' and ' if conj else ' or ').join(terms)})"

    def _literal_test(self, g: Formula, negated: bool, scope: frozenset,
                      depth: int) -> str:
        if negated and depth < _MAX_NESTING and \
                (type(g) is ExistsV or type(g) is ForallV):
            return self._vertex_test(g, scope, depth + 1, True)
        t = self.test(g, scope, depth)
        return _negation(t) if negated else t

    def _vertex_test(self, f: ExistsV | ForallV, scope: frozenset,
                     depth: int, negated: bool) -> str:
        """Source of the truth value of exists z. g (the row of g over z
        is not 0) or forall z. g (it is full), or of its negation."""
        src, comp = self._row(f.body, scope, f.var, depth)
        forall = type(f) is ForallV
        op = "==" if forall != negated else "!="
        against = "_F" if forall != comp else "0"
        if src == against:  # _F and 0 are equal on the empty graph
            return str(op == "==")
        return f"({src} {op} {against})"

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

    def row(self, f: Formula, scope: frozenset, y: str, depth: int = 0,
            negated: bool = False) -> str:
        """Source of the row of f, or of !f if negated, over the vertex
        variable y: the bitmask of the values of y at which it holds.
        Every other free variable of f is in scope; a binding of y in
        scope is shadowed."""
        src, comp = self._row(f, scope, y, depth)
        return _final(src, comp != negated)

    def _row(self, f: Formula, scope: frozenset, y: str,
             depth: int) -> tuple[str, bool]:
        """The row of f over y as (source, complemented): the row is the
        value of the source, or its complement if complemented, so that
        a negation costs nothing.  The constant rows are "0" and "_F"."""
        scope = scope - {y}
        if y not in f.free:
            t = self.test(f, scope, depth)
            if t == "True" or t == "False":
                return ("_F" if t == "True" else "0"), False
            return f"(_F if {t} else 0)", False
        if depth == _MAX_NESTING:
            return self._split(f, scope, y), False
        d = depth + 1
        kind = type(f)
        if kind is EdgeAtom:
            if f.x == f.y:
                return "0", False  # graphs have no loops
            other = f.y if f.x == y else f.x
            return f"{self.adjacency()}[{self.vertex(other, scope)}]", False
        if kind is Eq:
            if f.x == f.y:
                return "_F", False
            other = f.y if f.x == y else f.x
            return f"(1 << {self.vertex(other, scope)})", False
        if kind is SetAtom:
            return self.set_mask(f.set_name, scope), False
        if kind in _CONNECTIVES:
            # an And is the conjunction of its literals, an Or the
            # complement of the conjunction of theirs negated
            conj = kind is And or kind is Not
            lits = _conjuncts(f, not conj)
            if len(lits) == 1:  # a negation
                g, neg = lits[0]
                src, comp = self._row(g, scope, y, d)
                return src, comp != neg
            src, comp = self._conjunction(lits, scope, y, d)
            return src, comp == conj
        if kind is ExistsV:
            return self._exists_row(f.var, _conjuncts(f.body), scope, y, d)
        if kind is ForallV:  # forall z. f is !exists z. !f
            src, comp = self._exists_row(f.var, _conjuncts(f.body, True),
                                         scope, y, d)
            return src, not comp
        if kind is App:
            return self._app_row(f, scope, y), False
        if kind is Iff:
            left, lc = self._row(f.left, scope, y, d)
            right, rc = self._row(f.right, scope, y, d)
            if left == right:
                return ("_F" if lc == rc else "0"), False
            if left == "0" or left == "_F":
                left, lc, right, rc = right, rc, left, lc
            if right == "0" or right == "_F":
                return left, (lc == rc) != (right == "_F")
            return f"({left} ^ {right})", lc == rc
        if kind is ExistsS or kind is ForallS:  # forall Z. f is !exists Z. !f
            sets, lits = self._set_range(f, scope)
            body = _final(*self._conjunction(lits, scope | {f.var}, y, d))
            return (f"_ES({sets}, lambda {_ident(f.var)}: {body}, _F)",
                    kind is ForallS)
        if kind is TC:
            return self._tc_row(f, scope, y), False
        raise TypeError(f"unknown node {f!r}")

    def _conjunction(self, lits: list[tuple[Formula, bool]],
                     scope: frozenset, y: str,
                     depth: int) -> tuple[str, bool]:
        """The row over y of the conjunction of the literals, as ``_row``
        gives it.  The plain literals come first: those without y are
        tested, and the rows of those with y are ANDed into one mask.
        Then the pure literals without y are tested, and the others
        follow in order; the first whose row is 0 skips the rest.  Tests
        before the first row guard the whole conjunction.  A literal that
        is constantly false makes it "0", one constantly true drops out."""
        guard, pos, neg, tests, chain = [], [], [], [], []
        zero = False  # a literal is constantly false
        for g, n in lits:
            if y in g.free:
                src, comp = self._row(g, scope, y, depth)
                comp = comp != n
                if src == "0" or src == "_F":
                    zero = zero or (src == "_F") == comp
                elif not self.plain(g):
                    chain.append((src, comp))
                elif src not in (neg if comp else pos):
                    (neg if comp else pos).append(src)
                continue
            t = self._literal_test(g, n, scope, depth)
            if t == "True" or t == "False":
                zero = zero or t == "False"
            elif self.plain(g):
                if t not in guard:
                    guard.append(t)
            else:
                (tests if self.pure(g) else chain).append(t)
        if zero or pos and neg and not set(pos).isdisjoint(neg):
            return "0", False
        if pos:
            chain.insert(0, (_group(" & ", pos + [f"~{m}" for m in neg]),
                             False))
        elif neg:
            chain.insert(0, (_group(" | ", neg), True))
        if tests:
            chain[:0] = tests
        while chain and type(chain[0]) is str:
            guard.append(chain.pop(0))
        if not chain:
            src, comp = "_F", False
        elif len(chain) == 1:
            src, comp = chain[0]
        else:
            src, comp = self._chain(chain), False
        if guard:
            src = (f"({src} if {' and '.join(guard)} else "
                   f"{'_F' if comp else '0'})")
        return src, comp

    def _chain(self, chain: list) -> str:
        """Source of the AND of the rows in chain, a row first, as long as
        they and the tests between them are not 0: each row but the last
        is kept in a temporary."""
        self.temps += 1
        t = f"_t{self.temps}"
        last = max(i for i, item in enumerate(chain) if type(item) is tuple)
        terms = [f"({t} := {_final(*chain[0])})"]
        for i in range(1, len(chain)):
            item = chain[i]
            if type(item) is str:
                terms.append(item)
                continue
            m, comp = item
            m = f"{t} & {'~' if comp else ''}{m}"
            terms.append(f"({t} := {m})" if i < last else f"({m})")
        if last < len(chain) - 1:
            terms.append(t)
        src = " and ".join(terms)
        if all(type(item) is tuple for item in chain):
            return f"({src})"  # a row, or the first that is 0
        return f"(({src}) or 0)"  # not False when a test fails

    def _exists_row(self, z: str, lits: list[tuple[Formula, bool]],
                    scope: frozenset, y: str,
                    depth: int) -> tuple[str, bool]:
        """The row over y of exists z. (the conjunction of lits), as
        ``_row`` gives it.  The pure literals without y give the z to
        visit, those without z are taken once, outside the loop, and the
        OR over the visited z takes the rows of the others."""
        guard, outside, rest = [], [], []
        for g, neg in lits:
            pure = self.pure(g)
            (guard if pure and y not in g.free else
             outside if pure and z not in g.free else rest).append((g, neg))
        zs = (_final(*self._conjunction(guard, scope - {z}, z, depth))
              if guard else "_F")
        if rest:
            body = _final(*self._conjunction(rest, scope | {z}, y, depth))
            found = ("0" if zs == "0" or body == "0" else
                     f"_E({zs}, lambda {_ident(z)}: {body}, _F)")
        elif zs == "0" or zs == "_F":
            found = zs
        else:
            found = f"(_F if {zs} else 0)"
        if not outside:
            return found, False
        out, comp = self._conjunction(outside, scope, y, depth)
        if found == "_F":
            return out, comp
        out = _final(out, comp)
        if out == "0" or found == "0":
            return "0", False
        if out == "_F":
            return found, False
        self.temps += 1
        t = f"_t{self.temps}"
        return f"(({t} := {out}) and ({t} & {found}))", False

    # -- set quantifiers ----------------------------------------------------

    def _set_range(self, f: ExistsS | ForallS, scope: frozenset
                   ) -> tuple[str, list[tuple[Formula, bool]]]:
        """The source of the range of exists Z. g, or of forall Z. g as
        !exists Z. !g, and the literals of g (of !g) left once its guards
        are taken.  A guard is a literal Z(v) or !Z(v), v a vertex
        variable in scope, or Z ⊆ M (``_subset_guard``).  Z then ranges
        over must | s for each submask s of M & ~must & ~forbid: ``_S`` in
        the binding, which counts those free vertices against the set
        cap.  Unguarded, M is V(G) and must and forbid are empty."""
        z = f.var
        within, must, forbid, rest = [], [], [], []
        for g, neg in _conjuncts(f.body, type(f) is ForallS):
            if type(g) is SetAtom and g.set_name == z and g.x in scope:
                part, mask = (forbid if neg else must), f"(1 << {_ident(g.x)})"
            else:
                part, mask = within, self._subset_guard(g, neg, z, scope)
                if mask is None:
                    rest.append((g, neg))
                    continue
            if mask not in part:
                part.append(mask)
        return (f"_S({_group(' & ', within) if within else '_F'}, "
                f"{_group(' | ', must) if must else 0}, "
                f"{_group(' | ', forbid) if forbid else 0})"), rest

    def _subset_guard(self, g: Formula, negated: bool, z: str,
                      scope: frozenset) -> Optional[str]:
        """The source of M's mask if the literal g, or !g if negated, says
        that Z ⊆ M: no w has Z(w) and !M(w), as forall w. (Z(w) -> M(w))
        says.  M is a set variable in scope or a label."""
        if type(g) is not (ExistsV if negated else ForallV):
            return None
        w = g.var
        lits = _conjuncts(g.body, not negated)  # what a w outside M meets
        if len(lits) != 2:
            return None
        for (a, a_neg), (m, m_neg) in (lits, lits[::-1]):
            if not (type(a) is SetAtom and a.set_name == z and a.x == w and
                    not a_neg and m_neg):
                continue
            if type(m) is SetAtom and m.x == w and m.set_name != z:
                if m.set_name in scope:
                    return _ident(m.set_name)
                if m.set_name in self.labels:
                    return self.label(m.set_name)
            elif type(m) is App and m.args == (w,) and m.name in self.labels \
                    and m.name not in self.tables and m.name not in self.lib:
                return self.label(m.name)
        return None

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
    """Formulas compiled for one graph and library, and the tables of the
    library predicates it has tabulated, which only ``tabulate`` writes.
    One store, ``made``, keeps the functions compiled and the values of
    their recipes (label masks, adjacency, table rows, one memo per
    callee and per TC body), each made once; a compile that misses while
    the store holds ``PLAN_CACHE_SIZE`` values empties it first.
    ``memos`` holds the memos weakly, so ``forget`` empties every memo a
    live function reads."""

    def __init__(self, G: LabeledGraph, lib: Optional[PredicateLibrary],
                 set_cap: int):
        self.G = G
        self.lib = lib
        self.tables: dict[str, Table] = {}
        self.labels = frozenset(G.labels)
        self.defs = lib.key if lib else NO_DEFINITIONS
        n = G.n

        def subsets(within: int, must: int, forbid: int):
            # the range of a set quantifier, checked against the cap
            # when the quantifier is reached
            free = within & ~forbid
            if must & ~free:
                return ()
            free &= ~must
            k = free.bit_count()
            if k > set_cap:
                raise SetQuantifierCapError(k, set_cap)
            if not must and not free & (free + 1):  # the low k bits
                return range(free + 1)
            return _submasks(must, free)

        self.base = {"_F": (1 << n) - 1, "_S": subsets, "_E": _exists,
                     "_ES": _exists_set, "_P": _pointwise}
        self.set_cap = set_cap
        self.made: dict[tuple, object] = {}
        self.memos = weakref.WeakSet()

    def tabulate(self, names: Iterable[str]) -> dict[str, Table]:
        """The binding's tables, extended by every tabulatable definition
        (arity at most ``MAX_MATERIALIZE_ARITY``, no set parameters) that
        the definitions ``names`` reach, in library order after one walk
        of the call graph.  A table is one call of the definition's row
        function per tuple of its leading arguments; later compiles read
        its rows instead of calling the definition."""
        n = self.G.n
        for d in self.lib.reach(names):
            if d.name in self.tables or not _tabulatable(d):
                continue
            k = len(d.params)
            if k == 0:
                rows = int(self.compile(d.body, ())())
            else:
                fn = self.compile(d.body, d.params[:-1], d.params[-1])
                rows = _all_rows(fn, n, k - 1)
            self.tables[d.name] = Table(n, k, rows)
        return self.tables

    def compile(self, f: Formula, params: Sequence[str],
                row: Optional[str] = None):
        """The function of params (vertex indices for vertex variables,
        bitmasks for set variables) that tells whether f holds or, given
        a row variable, returns the row of f over it, planned for the
        label names of G, the names that have tables now and the library.
        An unknown name in f or in a callee or TC body it reaches raises
        EvalError here, before anything is evaluated.  The same f,
        params, row and table names return the same function while the
        store keeps it."""
        return self.make(("P", f, tuple(params), row, frozenset(self.tables)))

    def make(self, recipe: tuple):
        """The value of a recipe on this graph, made once while the store
        keeps it; ("P", f, params, row, tables) is a compiled function."""
        value = self.made.get(recipe)
        if value is not None:
            return value
        kind, *args = recipe
        if kind == "P":
            if len(self.made) >= PLAN_CACHE_SIZE:
                self.made.clear()
            f, params, row, tables = args
            p = plan(f, params, row, self.labels, tables, self.defs)
            g = dict(self.base)
            for name, r in p.recipes:
                g[name] = (FunctionType(r[1], g) if r[0] == "F"
                           else self.make(r))
            value = FunctionType(p.code, g)
        elif kind == "A":
            value = self.G.adjacency_masks()
        elif kind == "L":
            value = _mask(self.G.labels[args[0]])
        elif kind == "R":
            name, positions, arity = args
            t = self.tables[name]
            if t.arity != arity:
                raise EvalError(f"{name!r} called with arity {arity}, "
                                f"tabulated with {t.arity}")
            value = t.rows(positions)
        elif kind == "K":
            rows = self.make(("C", *args))
            value = functools.cache(lambda *val: _transpose(rows(*val)))
        else:  # "D" or "C", compiled when first bound
            fn = self.make(("P", *args, frozenset(self.tables)))
            value = (functools.cache(fn) if kind == "D"
                     else _tc_rows(fn, self.G.n))
        if kind in "DCK":
            self.memos.add(value)
        self.made[recipe] = value
        return value

    def forget(self):
        """Empty the memos, which a caller that passes ever new set masks
        to the same functions would otherwise fill without end."""
        if not self.memos:  # iterating even an empty WeakSet is slow
            return
        for memo in self.memos:
            memo.cache_clear()
