"""Evaluation of the MSO dialect on one graph, set at a time, plus
relativization and the pure-MSO encoding of TC.

``evaluate``, ``materialize`` and the interpretations all compile a
formula through ``plans.Binding.compile`` into a Python function over
vertex indices and set bitmasks on one graph: its plan, cached by
``plans`` and shared by every graph with the same label names, bound to
that graph.  A formula with free vertex variables (x̄, y) compiles to a
function of x̄ that returns its *row* over y, the bitmask of every y at
which it holds.  ``Binding.tabulate`` turns library predicates into
``Table``s of such rows, one call per tuple of their leading arguments;
the binding owns its tables, and ``materialize`` returns one of them.
Vertex quantifiers range over V(G); set quantifiers enumerate the
subsets of V(G) that their guards allow (Z(v), !Z(v) and Z within a set
variable or label, as ``relativize`` writes it) and raise
``SetQuantifierCapError`` when reached with more free vertices than the
cap: all n of them when unguarded.
TC is a first-class primitive computed by bitset fixpoint, once per
valuation of its outer variables, so formulas built from it stay
polynomial to evaluate.  Names are resolved while planning and binding:
an unassigned variable or an unknown predicate, in the formula or in a
callee or TC body it reaches, raises ``EvalError`` before evaluation,
and so does a valuation that gives a vertex outside V(G).
``evaluate`` keeps the binding of its last call and reuses it while the
graph object, the library's definitions and the set cap stay the same,
so calls at many points of one graph plan, bind and close TC once; that
binding holds its graph until another one comes.  A formula asked at
a point has one plan, its row over the last vertex variable: the first
point asks it for the point's bit alone, later points read the full
row, memoized for the last n tuples of the other arguments (so the n²
points of one graph cost n rows), or the one-bit row at the set cap.
The syntax lives in ``syntax``; its names are re-exported here.
"""

from __future__ import annotations

import functools
from typing import Optional

from .graphs import LabeledGraph
from .plans import (MAX_MATERIALIZE_ARITY, PLAN_CACHE_SIZE, Binding,
                    EvalError, SetQuantifierCapError, _tabulatable)
from .syntax import (  # re-exported: the dialect's public names
    TC, And, App, Definition, EdgeAtom, Eq, ExistsS, ExistsV, FalseF,
    ForallS, ForallV, Formula, FormulaSyntaxError, Iff, Implies,
    LibraryError, Not, Or, PredicateLibrary, SetAtom, TrueF, all_vars,
    app_refs, free_vars, fresh_var, is_set_var, parse_formula,
    parse_library, subformulas, substitute)
from .syntax import NO_DEFINITIONS, _rewrite
from .table import Table

DEFAULT_SET_CAP = 22


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


# The binding of the last call of evaluate, the set masks that call was
# given, and what ``_at_point`` keeps of the formulas asked at a point
# since those masks were set.  It holds its graph until evaluate is
# called on another graph, library definitions or set cap.
_last: Optional[tuple[Binding, tuple[int, ...], dict]] = None


def _binding(G: LabeledGraph, lib: Optional[PredicateLibrary], set_cap: int,
             sets: tuple[int, ...]) -> tuple[Binding, dict]:
    """The binding of the last call if it was made for G (this object),
    the definitions of lib and set_cap, else a new one, and the formulas
    asked at a point on it.  Both are emptied of their memos when the
    set masks differ from the last call's, so these hold values for the
    current set masks only."""
    global _last
    defs = lib.key if lib else NO_DEFINITIONS
    if _last is not None and _last[0].G is G and \
            _last[0].set_cap == set_cap and _last[0].defs == defs:
        binding, last_sets, asked = _last
        if last_sets != sets:
            binding.forget()
            asked = {}
    else:
        binding, asked = Binding(G, lib, set_cap), {}
    _last = binding, sets, asked
    return binding, asked


def _at_point(binding: Binding, asked: dict, f: Formula,
              names: tuple[str, ...], args: list[int], i: int) -> bool:
    """Whether f holds at args, the values of names: bit y = args[i] of
    the row of f over names[i], the last vertex variable.  While f and
    names have been asked at one point only, the row is asked for bit y
    alone; later points read the full row, memoized for the last n
    tuples of the other arguments, or the one-bit row at the set cap,
    which does no work the full row skips, over no larger set ranges."""
    key, point = (f, names), tuple(args)
    state = asked.get(key)  # the point asked, or the row memo
    others, y = names[:i] + names[i + 1:], args[i]
    rest = (*args[:i], *args[i + 1:])
    if state is None:
        if len(asked) >= PLAN_CACHE_SIZE:
            asked.clear()
        state = asked[key] = point
    elif type(state) is tuple and state != point:  # a second point
        state = asked[key] = functools.lru_cache(maxsize=binding.G.n)(
            binding.compile(f, others, names[i], True))
    if callable(state):
        try:
            return bool(state(*rest, binding.base["_F"]) >> y & 1)
        except SetQuantifierCapError:
            pass
    row = binding.compile(f, others, names[i], True)
    return bool(row(*rest, 1 << y) >> y & 1)


def evaluate(G: LabeledGraph, lib: Optional[PredicateLibrary], f: Formula,
             valuation: Optional[dict] = None, *,
             set_cap: int = DEFAULT_SET_CAP) -> bool:
    """Evaluate f on G under the valuation (vertex vars -> vertex index,
    set vars -> vertex set or bitmask).  A value outside V(G) raises
    EvalError.

    Successive calls on the same graph object, with the same library
    definitions and set cap, share one binding: each formula is planned
    and bound once, and label masks, adjacency, TC rows and callee memos
    are made once per graph.  The binding is dropped for another graph,
    other definitions or another set cap, and it keeps the last graph
    alive until then.

    With a vertex variable in the valuation, the answer is the point's
    bit of the row of f over the last vertex variable (``_at_point``),
    and SetQuantifierCapError is raised only when the row asked for that
    bit alone reaches a set quantifier over the cap."""
    valuation = valuation or {}
    names = tuple(valuation)
    args = [_argument(G.n, name, val) for name, val in valuation.items()]
    sets = tuple(a for name, a in zip(names, args) if is_set_var(name))
    binding, asked = _binding(G, lib, set_cap, sets)
    i = len(names) - 1
    while i >= 0 and is_set_var(names[i]):
        i -= 1
    if i >= 0:
        return _at_point(binding, asked, f, names, args, i)
    return bool(binding.compile(f, names)(*args))  # 0, 1 or a bool


def materialize(G: LabeledGraph, lib: PredicateLibrary, name: str, *,
                set_cap: int = DEFAULT_SET_CAP) -> Table:
    """Full extension of a library predicate over G, computed bottom-up,
    one row per tuple of its leading arguments.

    The tables of the predicate's dependencies are computed first, in
    library order, in the same binding.  A dependency that cannot be
    tabulated (arity above 3 or set parameters) is called through its
    compiled function instead.
    """
    if name not in lib:
        raise EvalError(f"no definition for {name!r}")
    if not _tabulatable(lib.by_name[name]):
        raise EvalError(
            f"{name!r} has arity above {MAX_MATERIALIZE_ARITY} or set "
            f"parameters and cannot be tabulated; evaluate it pointwise")
    return _full(Binding(G, lib, set_cap).tabulate([name]))[name]


def materialize_all(G: LabeledGraph, lib: PredicateLibrary, *,
                    set_cap: int = DEFAULT_SET_CAP) -> dict[str, Table]:
    """Tables for every tabulatable definition in the library, all bound
    in one binding of G."""
    return _full(Binding(G, lib, set_cap).tabulate([d.name
                                                    for d in lib.defs]))


def _full(tables: dict[str, Table]) -> dict[str, Table]:
    """tables with every row made, in library order, so that every row
    over the set cap raises here as a full tabulation would."""
    for t in tables.values():
        t.fill()
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

    def enter(g: Formula, _):
        # nodes are checked in preorder; a quantifier-free subtree over
        # the graph vocabulary (a unary call is a label) is kept whole
        if g.qf and all(arity == 1 for _, arity in g.calls):
            return g
        if isinstance(g, App):
            raise ValueError("relativization is defined on the graph "
                             "vocabulary only")
        if isinstance(g, TC):
            raise ValueError("relativization does not support the TC "
                             "primitive")
        if isinstance(g, (Not, And, Or, Implies, Iff)):
            return None, type(g)
        if isinstance(g, (ExistsV, ForallV)):
            guard = SetAtom(X, g.var)
        elif isinstance(g, (ExistsS, ForallS)):
            w = fresh_var("w", {g.var, X})
            guard = ForallV(w, Implies(SetAtom(g.var, w), SetAtom(X, w)))
        else:
            raise TypeError(f"unknown node {g!r}")
        link = And if isinstance(g, (ExistsV, ExistsS)) else Implies
        return None, lambda body: type(g)(g.var, link(guard, body))

    return _rewrite(f, None, enter)


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
    # a and b stand outside the scope of u and v, so they may share
    # their names
    X = fresh_var("X", all_vars(body) | {a, b, u, v}).capitalize()
    closed = ForallV(u, ForallV(v, Implies(And(SetAtom(X, u), body),
                                           SetAtom(X, v))))
    return ForallS(X, Implies(And(SetAtom(X, a), closed), SetAtom(X, b)))
