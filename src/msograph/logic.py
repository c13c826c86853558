"""Evaluation of the MSO dialect on one graph, set at a time, plus
relativization and the pure-MSO encoding of TC.

``evaluate``, ``materialize`` and the interpretations all compile a
formula into a Python function over vertex indices and set bitmasks on
one graph: its plan, cached by ``plans`` and shared by every graph with
the same label names, bound to that graph.  A formula with free vertex
variables (x̄, y) compiles to a function of x̄ that returns its *row*
over y, the bitmask of every y at which it holds, and a library
predicate is tabulated as a ``Table`` of such rows, one call per tuple
of its leading arguments.  Vertex quantifiers range over V(G); set
quantifiers enumerate subsets of V(G) and raise
``SetQuantifierCapError`` when reached on a graph larger than the cap.
TC is a first-class primitive computed by bitset fixpoint, once per
valuation of its outer variables, so formulas built from it stay
polynomial to evaluate.  Names are resolved while planning: an
unassigned variable or an unknown predicate raises ``EvalError`` before
evaluation, and so does a valuation that gives a vertex outside V(G).
The syntax lives in ``syntax``; its names are re-exported here.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Iterable, Optional, Sequence

from . import plans
from .graphs import LabeledGraph
from .plans import Binding, EvalError, Plan, SetQuantifierCapError
from .syntax import (  # re-exported: the dialect's public names
    TC, And, App, Definition, EdgeAtom, Eq, ExistsS, ExistsV, FalseF,
    ForallS, ForallV, Formula, FormulaSyntaxError, Iff, Implies,
    LibraryError, Not, Or, PredicateLibrary, SetAtom, TrueF, all_vars,
    app_refs, free_vars, fresh_var, is_set_var, parse_formula,
    parse_library, subformulas, substitute)
from .syntax import NO_DEFINITIONS
from .table import Table

DEFAULT_SET_CAP = 22


Tables = dict[str, AbstractSet[tuple[int, ...]]]


def _plan(G: LabeledGraph, lib: Optional[PredicateLibrary], f: Formula,
          params: Sequence[str], row: Optional[str],
          tables: Optional[Tables]) -> Plan:
    """The cached plan of f for G's label names, the names that have
    tables now and the library's definitions."""
    return plans.plan(f, tuple(params), row, frozenset(G.labels),
                      frozenset(tables or ()),
                      lib.key if lib else NO_DEFINITIONS)


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
    plan = _plan(G, lib, f, params, None, tables)
    return Binding(G, set_cap, tables).function(plan)


def _argument(n: int, name: str, val) -> int:
    """The value of name as a compiled function takes it: a vertex index,
    or the bitmask of a set given as a bitmask or as vertices."""
    if not is_set_var(name):
        if isinstance(val, int) and 0 <= val < n:
            return val
        raise EvalError(f"{name!r} = {val!r} is not a vertex of the graph "
                        f"(0..{n - 1})")
    if isinstance(val, int):
        if 0 <= val < 1 << n:
            return val
        raise EvalError(f"{name!r} = {val!r} is not a bitmask over the "
                        f"{n} vertices of the graph")
    mask = 0
    for v in val:
        if not (isinstance(v, int) and 0 <= v < n):
            raise EvalError(f"{name!r} holds {v!r}, not a vertex of the "
                            f"graph (0..{n - 1})")
        mask |= 1 << v
    return mask


def evaluate(G: LabeledGraph, lib: Optional[PredicateLibrary], f: Formula,
             valuation: Optional[dict] = None, *,
             set_cap: int = DEFAULT_SET_CAP,
             tables: Optional[Tables] = None) -> bool:
    """Evaluate f on G under the valuation (vertex vars -> vertex index,
    set vars -> vertex set or bitmask).  A value outside V(G) raises
    EvalError."""
    valuation = valuation or {}
    args = [_argument(G.n, name, val) for name, val in valuation.items()]
    fn = compile_formula(G, lib, f, list(valuation), set_cap=set_cap,
                         tables=tables)
    return fn(*args)


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
    return _tabulate_reached(Binding(G, set_cap, tables), lib, [name])[name]


def _tabulate_reached(binding: Binding, lib: PredicateLibrary,
                      names: Iterable[str]) -> Tables:
    """The binding's tables, extended by every tabulatable definition
    that the definitions ``names`` reach, tabulated in library order
    after one walk of the call graph."""
    tables = binding.tables
    for d in lib.reach(names):
        if d.name not in tables and _tabulatable(d):
            tables[d.name] = _tabulate(binding, lib, d, tables)
    return tables


def _tabulate(binding: Binding, lib: PredicateLibrary, d: Definition,
              tables: Tables) -> Table:
    """The table of d, one call of its row function per tuple of its
    leading arguments."""
    G = binding.G
    n, k = G.n, len(d.params)
    if k == 0:
        plan = _plan(G, lib, d.body, (), None, tables)
        return Table(n, 0, int(binding.function(plan)()))
    plan = _plan(G, lib, d.body, d.params[:-1], d.params[-1], tables)
    fn = binding.function(plan)

    def rows(prefix):
        if len(prefix) == k - 1:
            return fn(*prefix)
        return [rows(prefix + (v,)) for v in range(n)]
    return Table(n, k, rows(()))


def materialize_all(G: LabeledGraph, lib: PredicateLibrary, *,
                    set_cap: int = DEFAULT_SET_CAP) -> dict[str, Table]:
    """Tables for every tabulatable definition in the library, all bound
    in one binding of G."""
    return _tabulate_reached(Binding(G, set_cap, {}), lib,
                            [d.name for d in lib.defs])


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
    """relativize's rebuild, bottom-up on its own stack so that a deep
    formula needs no recursion; nodes are checked in preorder."""
    done: list[Formula] = []  # the rebuilt subformulas, the latest last
    stack = [(f, False)]
    while stack:
        g, kids_done = stack.pop()
        if not kids_done:
            if isinstance(g, (TrueF, FalseF, EdgeAtom, Eq, SetAtom)):
                done.append(g)
            elif isinstance(g, App):
                if len(g.args) != 1:  # a unary label atom is graph vocabulary
                    raise ValueError("relativization is defined on the "
                                     "graph vocabulary only")
                done.append(g)
            elif isinstance(g, TC):
                raise ValueError(
                    "relativization does not support the TC primitive")
            elif isinstance(g, (Not, And, Or, Implies, Iff, ExistsV,
                                ForallV, ExistsS, ForallS)):
                stack.append((g, True))
                stack += [(c, False) for c in reversed(subformulas(g))]
            else:
                raise TypeError(f"unknown node {g!r}")
        elif isinstance(g, Not):
            done[-1] = Not(done[-1])
        elif isinstance(g, (And, Or, Implies, Iff)):
            right = done.pop()
            done[-1] = type(g)(done[-1], right)
        elif isinstance(g, ExistsV):
            done[-1] = ExistsV(g.var, And(SetAtom(X, g.var), done[-1]))
        elif isinstance(g, ForallV):
            done[-1] = ForallV(g.var, Implies(SetAtom(X, g.var), done[-1]))
        elif isinstance(g, ExistsS):
            done[-1] = ExistsS(g.var, And(_subset_guard(g.var, X), done[-1]))
        else:
            done[-1] = ForallS(g.var, Implies(_subset_guard(g.var, X),
                                              done[-1]))
    return done[0]


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
