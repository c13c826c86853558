"""Formula plans: a formula is compiled once per shape and bound to
each graph it is evaluated on.

A *plan* does not depend on the graph.  It holds the code of the one
function a formula compiles to and a recipe for each global that code
reads: the adjacency rows, a label's mask, a table's rows, a callee, a
TC body or a subformula split off past the planner's nesting to compile.
``plan`` keeps the plans in a fixed-size LRU cache keyed by the formula,
its parameters and row variable, the label names of the graph, the names
that have tables and the library's definitions.  ``Binding.compile``,
the one entry point, builds that key for one graph and library and runs
the plan's recipes on the graph: it supplies the full row, the ranges of
set quantifiers under the set cap, label masks, table rows and fresh
memos for callees and TC, and the functions of split subformulas, each
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
place of calling the definitions.  A table of arity 2 or 3 makes a row
when a plan first reads it, unless its row function would read lazy
tables ``_MAX_LAZY_DEPTH`` deep: then it is filled at once, which keeps
the stack of a lazy read bounded however long a chain of tables is.  A
table of arity 0 or 1 has one row, which ``tabulate`` makes.
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
from .planner import EvalError, _Planner
from .syntax import (NO_DEFINITIONS, Definition, Definitions, Formula,
                     PredicateLibrary, is_set_var)
from .table import LazyRows, Table, bits, transpose


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


def _tc_rows(succ, n: int):
    """The reachability rows of TC as a function of its outer variables,
    computed once per valuation from the successor rows
    ``succ(*outer, u)``."""
    @functools.cache
    def rows(*outer):
        return _reach_rows([succ(*outer, u) for u in range(n)])
    return rows


@functools.lru_cache(maxsize=64)
def _helpers(n: int, set_cap: int) -> dict:
    """The globals that every plan function of a graph on n vertices
    reads: the full row _F, and helpers that close over it and the set
    cap, so that the generated source passes neither.  They depend on
    nothing else, so bindings with equal n and cap share one dict, and
    no code may change it: ``Binding.make`` copies it."""
    full = (1 << n) - 1

    def free_of(within: int, must: int, forbid: int) -> int:
        # the vertices that the range of a set quantifier leaves free,
        # checked against the cap when the quantifier is reached, or -1
        # if the range is empty
        free = within & ~forbid
        if must & ~free:
            return -1
        free &= ~must
        k = free.bit_count()
        if k > set_cap:
            raise SetQuantifierCapError(k, set_cap)
        return free

    def subsets(within=full, must=0, forbid=0):
        # the range of a set quantifier: must | s for each submask s of
        # within & ~must & ~forbid
        free = free_of(within, must, forbid)
        if free < 0:
            return ()
        if not must and not free & (free + 1):  # the low k bits
            return range(free + 1)
        return _submasks(must, free)

    def nonempty(within=full, must=0, forbid=0) -> bool:
        # whether that range has a set
        return free_of(within, must, forbid) >= 0

    def exists(zs: int, row, want=full) -> int:
        # the OR of row(z) over the vertices z in zs, until it holds want
        acc = 0
        while zs:
            low = zs & -zs
            acc |= row(low.bit_length() - 1)
            if acc & want == want:
                break
            zs ^= low
        return acc

    def exists_set(sets, row, want=full) -> int:
        # the OR of row(Z) over the sets Z, until it holds want
        acc = 0
        for Z in sets:
            acc |= row(Z)
            if acc & want == want:
                break
        return acc

    def exists_index(zs: int, rows, want=full) -> int:
        # the OR of rows[z] over the vertices z in zs, until it holds want
        acc = 0
        while zs:
            low = zs & -zs
            acc |= rows[low.bit_length() - 1]
            if acc & want == want:
                break
            zs ^= low
        return acc

    def pointwise(test, want=full) -> int:
        # the row of the vertices of want at which test holds
        return _mask(v for v in bits(want) if test(v))

    return {"_F": full, "_S": subsets, "_N": nonempty, "_E": exists,
            "_ES": exists_set, "_I": exists_index, "_P": pointwise}


def _submasks(must: int, free: int):
    """must | s for every submask s of free, in ascending order."""
    s = 0
    while True:
        yield must | s
        if s == free:
            return
        s = (s - free) & free


class Plan:
    """The graph-independent half of a compiled formula: the code of its
    function and, for the globals that code reads, one recipe each.  A
    recipe is a tuple: ("A",) the adjacency rows, ("L", name) a label's
    mask, ("R", name, position) a table's rows over one position, ("D",
    body, params, row) a memoized callee, ("W", body, params, row) one
    whose row takes the bits wanted, ("C", body, params, row) and ("K",
    body, params, row) the reachability rows of a TC body and their
    transpose, ("P", f, params, row, tables, want) the function of a
    split subformula, keyed as ``Binding.compile`` keys a plan."""

    __slots__ = ("code", "recipes")

    def __init__(self, code: CodeType, recipes: tuple):
        self.code = code
        self.recipes = recipes


PLAN_CACHE_SIZE = 128
MAX_MATERIALIZE_ARITY = 3
# the most lazy tables that one lazy read may nest
_MAX_LAZY_DEPTH = 24


def _tabulatable(d: Definition) -> bool:
    return len(d.params) <= MAX_MATERIALIZE_ARITY and \
        not any(is_set_var(p) for p in d.params)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan(f: Formula, params: tuple[str, ...], row: Optional[str],
         labels: frozenset, tables: frozenset, defs: Definitions,
         want: bool = False) -> Plan:
    """The plan of f as a function of params (returning the row over row,
    if given, and taking last the bits wanted of it, if want) where the
    names in labels are labels, those in tables have tables and defs are
    the library's definitions."""
    planner = _Planner(labels, tables, defs)
    code = planner.function(f, params, row, want)
    return Plan(code, tuple(planner.recipes))


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
        # the depth of each lazy table: one more than the deepest of the
        # lazy tables that its row function reads
        self.depths: dict[str, int] = {}
        self.labels = frozenset(G.labels)
        self.defs = lib.key if lib else NO_DEFINITIONS
        self.base = _helpers(G.n, set_cap)
        self.set_cap = set_cap
        self.made: dict[tuple, object] = {}
        self.memos = weakref.WeakSet()

    def tabulate(self, names: Iterable[str]) -> dict[str, Table]:
        """The binding's tables, extended by every tabulatable definition
        (arity at most ``MAX_MATERIALIZE_ARITY``, no set parameters) that
        the definitions ``names`` reach, in library order after one walk
        of the call graph.  A table is one call of the definition's row
        function per tuple of its leading arguments; later compiles read
        its rows instead of calling the definition.  Each row function
        is planned here, so an unknown name raises EvalError at once.
        A table of arity 2 or 3 makes each row when it is first read
        (``table.LazyRows``), unless its depth would pass
        ``_MAX_LAZY_DEPTH``; other tables are filled here."""
        for d in self.lib.reach(names):
            if d.name in self.tables or not _tabulatable(d):
                continue
            k = len(d.params)
            if k == 0:
                rows = int(self.compile(d.body, ())())
            else:
                fn = self.compile(d.body, d.params[:-1], d.params[-1])
                rows = fn() if k == 1 else LazyRows(fn, k - 1)
            table = Table(self.G.n, k, rows)
            if k > 1:
                depth = self._beneath(d) + 1
                if depth > _MAX_LAZY_DEPTH:
                    table.fill()
                else:
                    self.depths[d.name] = depth
            self.tables[d.name] = table
        return self.tables

    def _beneath(self, d: Definition) -> int:
        """The depth of the deepest lazy table that the row function of
        d reads: directly, or through definitions without a table, which
        it calls."""
        deepest, seen, stack = 0, {d.name}, [d]
        while stack:
            for c, _ in stack.pop().body.calls:
                if c in seen:
                    continue
                seen.add(c)
                if c in self.tables:
                    deepest = max(deepest, self.depths.get(c, 0))
                elif c in self.lib:
                    stack.append(self.lib.by_name[c])
        return deepest

    def compile(self, f: Formula, params: Sequence[str],
                row: Optional[str] = None, want: bool = False):
        """The function of params (vertex indices for vertex variables,
        bitmasks for set variables) that tells whether f holds or, given
        a row variable, returns the row of f over it, planned for the
        label names of G, the names that have tables now and the library.
        If want, the row function takes last the mask of the bits wanted
        and its row is right on those (``planner``).
        An unknown name in f or in a callee or TC body it reaches raises
        EvalError here, before anything is evaluated.  The same f,
        params, row, want and table names return the same function while
        the store keeps it."""
        return self.make(("P", f, tuple(params), row, frozenset(self.tables),
                          want))

    def make(self, recipe: tuple):
        """The value of a recipe on this graph, made once while the store
        keeps it; ("P", f, params, row, tables, want) is a plan function."""
        value = self.made.get(recipe)
        if value is not None:
            return value
        kind, *args = recipe
        if kind == "P":
            if len(self.made) >= PLAN_CACHE_SIZE:
                self.made.clear()
            f, params, row, tables, want = args
            p = plan(f, params, row, self.labels, tables, self.defs, want)
            g = dict(self.base)
            for name, r in p.recipes:
                g[name] = self.make(r)
            value = FunctionType(p.code, g)
        elif kind == "A":
            value = self.G.adjacency_masks()
        elif kind == "L":
            value = _mask(self.G.labels[args[0]])
        elif kind == "R":
            name, position = args
            value = self.tables[name].rows(position)
        elif kind == "K":
            rows = self.make(("C", *args))
            value = functools.cache(lambda *val: transpose(rows(*val)))
        else:  # "D", "W" or "C", compiled when first bound
            fn = self.make(("P", *args, frozenset(self.tables), kind == "W"))
            value = (_tc_rows(fn, self.G.n) if kind == "C"
                     else functools.cache(fn))
        if kind in "DWCK":
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
