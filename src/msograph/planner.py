"""The planner: the source of the Python function that a formula
compiles to, and the recipes of the globals it reads.  ``plans`` keeps
the plans it makes and binds them to graphs, with the helpers that the
generated functions call (``plans._helpers``).  A name the planner
cannot resolve raises ``EvalError``.
"""

from __future__ import annotations

import functools
from types import CodeType
from typing import Optional, Sequence

from .syntax import (TC, And, App, Definitions, EdgeAtom, Eq, ExistsS,
                     ExistsV, FalseF, ForallS, ForallV, Formula, Iff, Implies,
                     Not, Or, SetAtom, TrueF, is_set_var)


class EvalError(ValueError):
    pass


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
# full.  A test is 0, 1 or a bool; ``evaluate`` makes it a bool once.
# Besides the recipes' values, every plan reads helpers bound to the
# graph's full row _F and the set cap (``_helpers``), so the source
# passes neither: _E ORs a row over vertices, _I ORs rows[z] of a table
# or the adjacency, _ES ORs a row over the sets of a range, which _S
# makes and _N tests for a set, and _P builds a row pointwise.  A
# quantifier is *idle* when its body, once constants fold, does not read
# its variable (a plain scan of the body's source).  It becomes (body if
# range else 0), with no lambda and no loop: a vertex quantifier tests
# its row of vertices, a set quantifier asks _N, which checks the cap as
# _S does.  A fragment is bracketed only where Python's precedence
# needs it (``_at``).
#
# Order.  Every connective orders its literals by rank (``_rank``),
# each rank in its written order: 0 for a *plain* literal (quantifier-
# free, the node's ``qf`` fact, and calling only labels and tables), 1
# for one that reaches no set quantifier, 2 for the others.  In boolean
# mode a conjunction, disjunction or implication is spread into its
# literals, tested rank by rank, so an atom that decides the connective
# skips the quantified literals beside it.  A conjunction in row mode
# makes its plain tests, then its tests of rank 1, a guard, and the rows
# of its plain literals one mask, a & b & ~c, with no temporary, or
# a | b complemented when every one is a complement; its rows of rank 1,
# then its literals of rank 2, follow, each ANDed into a temporary,
# stopping at the first one whose row is 0.  So a set quantifier is
# reached only from a live branch.  An idle set quantifier makes its
# range and reads its body once, in the order its loop did.  Constant
# rows and tests fold away, the reflexive closure TC[..](a, a) too.  The
# tables of library predicates are rows too (Table).  A TC body and a
# definition called without a table each have a plan of their own,
# planned and bound when the binding first binds them and memoized per
# argument tuple; TC rows are reachability masks, built from one
# successor row per vertex.  A subformula deeper than ``_MAX_NESTING``
# is split off the same way: a recipe for the plan of its own function,
# with the parameters it reads, planned when first bound.
#
# Want.  A row planned with want, as ``evaluate`` plans one for a point,
# takes last the mask _w of the bits wanted, and is right on those.  Its
# loops over y read it: _E, _I and _ES stop once they hold _w, a chain
# or a quantifier's literals taken out of its loop at a row that is 0
# on _w, _P tests the vertices of _w, and the row of a definition it
# calls without a table takes _w too.  A set quantifier with S(y) or
# !S(y), which stays, puts a one-bit _w in or out of S, and takes out of
# its loop, once its range is made, its literals without S of rank 0
# or 1, as a vertex quantifier does in any row.  So no loop runs longer,
# or over a larger range, than with _w = _F.
#
# Lifting.  A vertex quantifier exists z whose literals all have rank 0
# or 1 first spreads each literal exists w. g: the literals of g that
# read neither w nor y come out, to pick the z to visit (``_spread``).
# If the literals left in its loop read no set variable and fewer vertex
# variables, but z and y, than are in scope, the loop becomes one call
# of a callee, exists z. (those literals), planned like a definition
# without a table and memoized on the variables it reads (``_lift``): a
# row that does not read an outer variable is made once per value of
# those it reads, as in the decorrelation of nested queries and in
# tabling.  The call stands where the loop stood, after the same tests;
# no literal that moves, or that is lifted, reaches a set quantifier, so
# none is reached elsewhere or in another order and no cap outcome
# changes.  In a row planned with want the call takes no _w: it makes
# the callee's full row, memoized, as a plan without want does.  The
# memo lives in the binding's store, which ``forget`` empties.

# AST levels per generated function; deeper subformulas are split off as
# calls of plan recipes (``_split``), because Python's parser refuses
# more than 200 nested brackets and a level can open five.
_MAX_NESTING = 35


@functools.lru_cache(maxsize=1024)
def _ident(name: str) -> str:
    """An injective map from variable names (``x'`` is one) to Python
    identifiers that cannot collide with the compiler's ``_`` globals."""
    return "V" + "".join(c if c.isascii() and c.isalnum() else f"_{ord(c):x}_"
                         for c in name)


# How tightly the operator at the top of a generated fragment binds,
# weakest first, as in Python's grammar: a conditional, or, and, not, a
# comparison, |, ^, &, a shift, ~, and an atom (a name, number, call or
# subscript, or anything in brackets).
(_COND, _OR, _AND, _NOT, _CMP, _BOR, _XOR, _BAND, _SHIFT, _INV,
 _ATOM) = range(11)


def _reads(src: str, name: str) -> bool:
    """Whether the identifier name occurs in src, not as a part of a
    longer identifier: a plain scan, as cheap as ``in`` when it does not
    occur."""
    i = src.find(name)
    while i >= 0:
        j = i + len(name)
        if (i == 0 or src[i - 1] not in _WORD) and \
                (j == len(src) or src[j] not in _WORD):
            return True
        i = src.find(name, j)
    return False


_WORD = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


def _lookup(src: str) -> bool:
    """src is a name indexed by names, ``_R3[Vx]``: no call, no operator."""
    name, *keys = src.split("[")
    return name.isidentifier() and all(
        k[-1:] == "]" and k[:-1].isidentifier() for k in keys)


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


def _formula(lits: list[tuple[Formula, bool]]) -> Formula:
    """The conjunction of the literals, in their order."""
    if not lits:
        return TrueF()
    return functools.reduce(And, [Not(g) if neg else g for g, neg in lits])


class _Planner:
    """Builds the plan of one function: its source and the recipes of
    the globals it reads.  Callees, TC bodies and split subformulas are
    recipes, planned when they are bound, never inside this plan."""

    def __init__(self, labels: frozenset, tables: frozenset,
                 defs: Definitions):
        self.labels = labels
        self.tables = tables
        self.lib = defs.by_name
        self.recipes: list[tuple[str, tuple]] = []
        self.names: dict[tuple, str] = {}
        self.temps = 0
        # the fragments whose top operator binds looser than an atom
        self.levels: dict[str, int] = {}

    def function(self, f: Formula, params: Sequence[str],
                 row: Optional[str] = None, want: bool = False) -> CodeType:
        """The code of a function of params equivalent to f; given a row
        variable, of the function of params (and _w, if want) that
        returns the row of f over it."""
        if len(set(params)) < len(params) or row in params:
            raise EvalError(f"repeated variable in {[*params, row]}")
        scope = frozenset(params)
        if row is None:
            expr = self.test(f, scope)
        elif is_set_var(row):
            raise EvalError(f"row variable {row!r} is a set variable")
        else:
            expr = self._final(*self._row(f, scope, row, 0, want))
        names = [*map(_ident, params), *["_w"] * want]
        src = (f"def _f({', '.join(names)}):\n"
               f"    return {expr}\n")
        namespace: dict = {}
        exec(src, namespace)
        return namespace["_f"].__code__

    # -- source fragments ---------------------------------------------------

    def _op(self, level: int, src: str) -> str:
        """src, a fragment whose top operator binds at level."""
        self.levels[src] = level
        return src

    def _at(self, src: str, level: int) -> str:
        """src as an operand where only an operator binding at least at
        level may stand unbracketed."""
        return src if self.levels.get(src, _ATOM) >= level else f"({src})"

    def _join(self, terms: list[str], sep: str, level: int) -> str:
        """The terms joined by sep, an associative operator binding at
        level."""
        if len(terms) == 1:
            return terms[0]
        return self._op(level, sep.join(self._at(t, level) for t in terms))

    def _final(self, src: str, comp: bool) -> str:
        """The source of a row given as its source, or as the source of
        its complement if comp."""
        if not comp:
            return src
        if src == "_F" or src == "0":
            return "0" if src == "_F" else "_F"
        # an a ^ b keeps its brackets: the parse groups as the planner did
        return self._op(_XOR, f"_F ^ {self._at(src, _BAND)}")

    def _negation(self, test: str) -> str:
        if test == "True" or test == "False":
            return "False" if test == "True" else "True"
        return self._op(_NOT, f"not {self._at(test, _NOT)}")

    def _bit(self, mask: str, v: str) -> str:
        """The test of bit v of mask."""
        return self._op(_BAND, f"{mask} >> {v} & 1")

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

    def _rank(self, g: Formula) -> int:
        """Where the literal g goes in its connective: 0 if it is plain
        (quantifier-free, its row mask algebra on arguments, labels and
        table rows), 1 if it reaches no set quantifier, else 2.  A call
        of a definition without a table counts as reaching one."""
        if g.calls and any(name in self.lib and name not in self.tables
                           for name, _ in g.calls):
            return 2
        return 0 if g.qf else 2 if g.sets else 1

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

    def _split(self, f: Formula, scope: frozenset, row: Optional[str],
               want: bool = False) -> str:
        """A call of f planned as a function of its own, a recipe that
        the binding plans when it binds it, so that deep formulas do not
        deepen the stack; a row that wants passes its _w on."""
        params = tuple(sorted(f.free & scope))
        g = self._global(("P", f, params, row, self.tables, want))
        return f"{g}({', '.join([*map(_ident, params), *['_w'] * want])})"

    def _idle(self, body: str, cond: str, otherwise: str = "0") -> str:
        """Source of body if cond holds, else of otherwise: a quantifier
        whose body does not read its variable, cond testing that its
        range is not empty, or a row that the test cond guards."""
        return self._op(_COND, f"{self._at(body, _OR)} if "
                               f"{self._at(cond, _OR)} else {otherwise}")

    # -- boolean mode -------------------------------------------------------

    def test(self, f: Formula, scope: frozenset, depth: int = 0) -> str:
        """Source of the truth value of f, 0 or 1 or a bool; its free
        variables are in scope.  Constant parts fold to True or False."""
        if depth == _MAX_NESTING:
            return self._split(f, scope, None)
        d = depth + 1
        kind = type(f)
        if kind is EdgeAtom:
            x, y = self.vertex(f.x, scope), self.vertex(f.y, scope)
            if x == y:
                return "False"  # graphs have no loops
            return self._bit(f"{self.adjacency()}[{x}]", y)
        if kind is Eq:
            x, y = self.vertex(f.x, scope), self.vertex(f.y, scope)
            return "True" if x == y else self._op(_CMP, f"{x} == {y}")
        if kind is SetAtom:
            return self._bit(self.set_mask(f.set_name, scope),
                             self.vertex(f.x, scope))
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
                return left if right == "True" else self._negation(left)
            # truth values are 0, 1 or bools, which == compares as such
            return self._op(_CMP, f"{self._at(left, _BOR)} == "
                                  f"{self._at(right, _BOR)}")
        if kind is ExistsS or kind is ForallS:  # forall Z. f is !exists Z. !f
            args, lits, _ = self._set_range(f, scope)
            body = self._junction(lits, True, scope | {f.var}, d)
            z = _ident(f.var)
            if _reads(body, z):
                found = f"any({body} for {z} in _S{args})"
            else:  # the range is still made, for its cap
                found = (f"_N{args}" if body == "True" else
                         self._idle(body, f"_N{args}"))
            return self._negation(found) if kind is ForallS else found
        if kind is TC:
            rows = self._tc(f, scope)  # bound for its names if it folds
            a, b = self.vertex(f.a, scope), self.vertex(f.b, scope)
            if a == b:
                return "True"  # the closure is reflexive
            return self._bit(f"{rows}[{a}]", b)
        raise TypeError(f"unknown node {f!r}")

    def _junction(self, lits: list[tuple[Formula, bool]], conj: bool,
                  scope: frozenset, depth: int) -> str:
        """Source of the truth value of the conjunction of the literals,
        or if not conj of the disjunction of their negations, tested by
        rank (``_rank``), each rank in its order."""
        unit, zero = ("True", "False") if conj else ("False", "True")
        ranked = ([], [], [])
        for g, neg in lits:
            t = self._literal_test(g, neg if conj else not neg, scope, depth)
            if t != unit:
                ranked[self._rank(g)].append(t)
        terms = ranked[0] + ranked[1] + ranked[2]
        if zero in terms or not terms:
            return zero if terms else unit
        return (self._join(terms, " and ", _AND) if conj else
                self._join(terms, " or ", _OR))

    def _literal_test(self, g: Formula, negated: bool, scope: frozenset,
                      depth: int) -> str:
        if negated and depth < _MAX_NESTING and \
                (type(g) is ExistsV or type(g) is ForallV):
            return self._vertex_test(g, scope, depth + 1, True)
        t = self.test(g, scope, depth)
        return self._negation(t) if negated else t

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
        return self._op(_CMP, f"{self._at(src, _BOR)} {op} {against}")

    def _app_test(self, f: App, scope: frozenset) -> str:
        args = [self.arg(a, scope) for a in f.args]
        if f.name in self.tables:
            *key, last = args
            rows = self._table_rows(f, len(args) - 1)
            return self._bit(rows + "".join(f"[{a}]" for a in key), last)
        if f.name in self.lib:
            return f"{self._definition(f, None)}({', '.join(args)})"
        if len(args) == 1 and f.name in self.labels:
            return self._bit(self.label(f.name), args[0])
        raise EvalError(f"unknown predicate or label {f.name!r}")

    # -- row mode -----------------------------------------------------------

    def _row(self, f: Formula, scope: frozenset, y: str, depth: int,
             want: bool = False) -> tuple[str, bool]:
        """The row of f over y, the mask of the y at which it holds, as
        (source, complemented): the row is the value of the source, or its
        complement if complemented, so that a negation costs nothing.  The
        constant rows are "0" and "_F".  The other free variables of f are
        in scope; a y there is shadowed.  If want, the loops read _w."""
        scope = scope - {y}
        if y not in f.free:
            t = self.test(f, scope, depth)
            if t == "True" or t == "False":
                return ("_F" if t == "True" else "0"), False
            return self._idle("_F", t), False
        if depth == _MAX_NESTING:
            return self._split(f, scope, y, want), False
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
            return self._op(_SHIFT, f"1 << {self.vertex(other, scope)}"), False
        if kind is SetAtom:
            return self.set_mask(f.set_name, scope), False
        if kind in _CONNECTIVES:
            # an And is the conjunction of its literals, an Or the
            # complement of the conjunction of theirs negated
            conj = kind is And or kind is Not
            lits = _conjuncts(f, not conj)
            if len(lits) == 1:  # a negation
                g, neg = lits[0]
                src, comp = self._row(g, scope, y, d, want)
                return src, comp != neg
            src, comp = self._conjunction(lits, scope, y, d, want)
            return src, comp == conj
        if kind is ExistsV:
            return self._exists_row(f.var, _conjuncts(f.body), scope, y,
                                    d, want)
        if kind is ForallV:  # forall z. f is !exists z. !f
            src, comp = self._exists_row(f.var, _conjuncts(f.body, True),
                                         scope, y, d, want)
            return src, not comp
        if kind is App:
            return self._app_row(f, scope, y, want), False
        if kind is Iff:
            left, lc = self._row(f.left, scope, y, d, want)
            right, rc = self._row(f.right, scope, y, d, want)
            if left == right:
                return ("_F" if lc == rc else "0"), False
            if left == "0" or left == "_F":
                left, lc, right, rc = right, rc, left, lc
            if right == "0" or right == "_F":
                return left, (lc == rc) != (right == "_F")
            return self._op(_XOR, f"{self._at(left, _XOR)} ^ "
                                  f"{self._at(right, _BAND)}"), lc == rc
        if kind is ExistsS or kind is ForallS:  # forall Z. f is !exists Z. !f
            args, lits, out = self._set_range(f, scope, y if want else None)
            body = self._final(*self._conjunction(lits, scope | {f.var}, y, d,
                                                  want))
            z = _ident(f.var)
            found = body
            if _reads(body, z):
                found = f"_ES(_S{args}, lambda {z}: {body}{', _w' * want})"
                if not out:
                    return found, kind is ForallS
            # else the range is still made, for its cap, and so it is
            # before the literals taken out of the loop, as at a point
            found = self._final(*self._outside(found, out, scope, y, d, want))
            return self._idle(found, f"_N{args}"), kind is ForallS
        if kind is TC:
            return self._tc_row(f, scope, y, want), False
        raise TypeError(f"unknown node {f!r}")

    def _conjunction(self, lits: list[tuple[Formula, bool]],
                     scope: frozenset, y: str, depth: int,
                     want: bool = False) -> tuple[str, bool]:
        """The row over y of the conjunction of the literals, as ``_row``
        gives it, by rank (``_rank``).  Those of rank 0 come first: those
        without y are tested, and the rows of those with y are ANDed into
        one mask.  Then come the tests of rank 1, the rows of rank 1, and
        the literals of rank 2, each part in its order; the first whose
        row is 0 skips the rest.  Tests before the first row guard the
        whole conjunction.  A literal that is constantly false makes it
        "0", one constantly true drops out."""
        guard, pos, neg, tests, rows, chain = [], [], [], [], [], []
        zero = False  # a literal is constantly false
        for g, n in lits:
            rank = self._rank(g)
            if y in g.free:
                src, comp = self._row(g, scope, y, depth, want)
                comp = comp != n
                if src == "0" or src == "_F":
                    zero = zero or (src == "_F") == comp
                elif rank:
                    (rows if rank == 1 else chain).append((src, comp))
                elif src not in (neg if comp else pos):
                    (neg if comp else pos).append(src)
                continue
            t = self._literal_test(g, n, scope, depth)
            if t == "True" or t == "False":
                zero = zero or t == "False"
            elif rank:
                (tests if rank == 1 else chain).append(t)
            elif t not in guard:
                guard.append(t)
        if zero or pos and neg and not set(pos).isdisjoint(neg):
            return "0", False
        if pos:
            inverted = [self._op(_INV, f"~{self._at(m, _INV)}") for m in neg]
            rows.insert(0, (self._join(pos + inverted, " & ", _BAND), False))
        elif neg:
            rows.insert(0, (self._join(neg, " | ", _BOR), True))
        chain[:0] = tests + rows
        while chain and type(chain[0]) is str:
            guard.append(chain.pop(0))
        if not chain:
            src, comp = "_F", False
        elif len(chain) == 1:
            src, comp = chain[0]
        else:
            src, comp = self._chain(chain, want), False
        if guard:
            src = self._idle(src, self._join(guard, " and ", _AND),
                             "_F" if comp else "0")
        return src, comp

    def _chain(self, chain: list, want: bool) -> str:
        """Source of the AND of the rows in chain, a row first, as long as
        they and the tests between them are not 0: each row that is not
        last is kept in a temporary."""
        t = self._new_global("t")
        stop = " & _w" * want
        terms = [f"({t} := {self._final(*chain[0])}){stop}"]
        for i, item in enumerate(chain[1:], 1):
            if type(item) is str:
                terms.append(self._at(item, _AND))
                continue
            m, comp = item
            m = (f"{t} & ~{self._at(m, _INV)}" if comp else
                 f"{t} & {self._at(m, _BAND)}")
            terms.append(f"({t} := {m}){stop}" if i < len(chain) - 1 else m)
        if type(chain[-1]) is str:
            terms.append(t)
        src = " and ".join(terms)
        if all(type(item) is tuple for item in chain):
            return self._op(_AND, src)  # a row, or the first that is 0
        return self._op(_OR, f"{src} or 0")  # not False when a test fails

    def _exists_row(self, z: str, lits: list[tuple[Formula, bool]],
                    scope: frozenset, y: str, depth: int,
                    want: bool) -> tuple[str, bool]:
        """The row over y of exists z. (the conjunction of lits), as
        ``_row`` gives it.  The literals of rank 0 or 1 (``_rank``)
        without y give the z to visit, those without z are taken once,
        outside the loop, and the OR over the visited z takes the rows of
        the others, or a callee does (``_lift``)."""
        spread = self._spread(lits, y)
        lits = spread or lits
        guard, outside, rest, loop = [], [], [], []
        for g, neg in lits:
            rank = self._rank(g)
            part = (guard if rank < 2 and y not in g.free else
                    outside if rank < 2 and z not in g.free else rest)
            part.append((g, neg))
            if part is rest or part is guard and z in g.free:
                loop.append((g, neg))
        call = spread and self._lift(z, loop, scope, y)
        if call:  # after the tests without z
            test = self._junction([(g, n) for g, n in guard
                                   if z not in g.free], True, scope, depth)
            found = (call if test == "True" else "0" if test == "False" else
                     self._idle(call, test))
            return self._outside(found, outside, scope, y, depth, want)
        # an empty conjunction is "_F": every z, or the row _F at each
        zs = self._final(*self._conjunction(guard, scope - {z}, z, depth))
        body = self._final(*self._conjunction(rest, scope | {z}, y, depth,
                                              want))
        found = ("0" if zs == "0" or body == "0" else
                 self._exists(zs, _ident(z), body, want))
        return self._outside(found, outside, scope, y, depth, want)

    def _spread(self, lits: list[tuple[Formula, bool]],
                y: str) -> Optional[list[tuple[Formula, bool]]]:
        """lits with each literal exists w. g, or !forall w. g, spread:
        the literals of g that read neither w nor y come out before it,
        where they pick the values of an enclosing variable to visit; or
        None if a literal has rank 2."""
        out = []
        for g, neg in lits:
            if g.sets or g.calls and self._rank(g) > 1:
                return None
            if type(g) is (ForallV if neg else ExistsV):
                inner = _conjuncts(g.body, neg)
                stay = [(h, n) for h, n in inner
                        if g.var in h.free or y in h.free]
                if len(stay) < len(inner):
                    out += [lit for lit in inner if lit not in stay]
                    g, neg = ExistsV(g.var, _formula(stay)), False
            out.append((g, neg))
        return out

    def _lift(self, z: str, loop: list[tuple[Formula, bool]],
              scope: frozenset, y: str) -> Optional[str]:
        """A call of the callee whose row over y is exists z. (the
        conjunction of the literals of the loop), memoized on the vertex
        variables it reads but z and y, if they are fewer than scope
        holds and it reads no set variable; else None."""
        if all(map(is_set_var, scope)):
            return None  # no vertex variable to skip
        free = frozenset().union(*(g.free for g, _ in loop)) - {z, y}
        if not (loop and free < scope) or any(map(is_set_var, free)) or \
                all(map(is_set_var, scope - free)):
            return None
        params = tuple(sorted(free))
        g = self._global(("D", ExistsV(z, _formula(loop)), params, y))
        return f"{g}({', '.join(map(_ident, params))})"

    def _outside(self, found: str, outside: list[tuple[Formula, bool]],
                 scope: frozenset, y: str, depth: int,
                 want: bool) -> tuple[str, bool]:
        """The row found of a quantifier, ANDed with the row of the
        literals taken out of its loop, which come first: the loop runs
        only if their row is not 0 (on the bits of _w, if want)."""
        if not outside:
            return found, False
        out, comp = self._conjunction(outside, scope, y, depth, want)
        if found == "_F":
            return out, comp
        out = self._final(out, comp)
        if out == "0" or found == "0":
            return "0", False
        if out == "_F":
            return found, False
        return self._chain([(out, False), (found, False)], want), False

    def _exists(self, zs: str, z: str, body: str, want: bool) -> str:
        """Source of the OR of the row body over the vertices z in zs."""
        if not _reads(body, z):  # idle: the same row at every z
            return "_F" if body == zs == "_F" else self._idle(body, zs)
        if body == f"1 << {z}":  # the OR of the z in zs
            return zs
        rows, _, index = body.rpartition("[")
        if index == f"{z}]" and not _reads(rows, z) and _lookup(rows):
            return f"_I({zs}, {rows}{', _w' * want})"  # body is rows[z]
        return f"_E({zs}, lambda {z}: {body}{', _w' * want})"

    # -- set quantifiers ----------------------------------------------------

    def _set_range(self, f: ExistsS | ForallS, scope: frozenset,
                   y: Optional[str] = None) -> tuple[str, list, list]:
        """The bracketed arguments of the range of exists Z. g, or of
        forall Z. g as !exists Z. !g, and the literals of g (of !g) left
        once its guards are taken; given a row variable y, those of rank
        0 or 1 without Z are apart, last.  A guard is a literal Z(v) or
        !Z(v), v a vertex variable in scope, Z ⊆ M (``_subset_guard``), or
        a one-bit _w, from Z(y) or !Z(y), which stays.
        Z then ranges over must | s for each submask s of M & ~must &
        ~forbid: ``_S`` in the binding, which counts those free vertices
        against the set cap, given (M, must, forbid), and ``_N`` tells
        whether that range has a set.  Unguarded, M is V(G) and must and
        forbid are empty, the defaults of both."""
        z = f.var
        within, must, forbid, rest, out = [], [], [], [], []
        for g, neg in _conjuncts(f.body, type(f) is ForallS):
            if type(g) is SetAtom and g.set_name == z and g.x == y:
                rest.append((g, neg))
                part = forbid if neg else must
                mask = self._op(_COND, "_w if _w & _w - 1 == 0 else 0")
            elif type(g) is SetAtom and g.set_name == z and g.x in scope:
                part = forbid if neg else must
                mask = self._op(_SHIFT, f"1 << {_ident(g.x)}")
            else:
                part, mask = within, self._subset_guard(g, neg, z, scope)
                if mask is None:
                    (out if y and z not in g.free and self._rank(g) < 2
                     else rest).append((g, neg))
                    continue
            if mask not in part:
                part.append(mask)
        args = [self._join(within, " & ", _BAND) if within else "_F",
                self._join(must, " | ", _BOR) if must else "0",
                self._join(forbid, " | ", _BOR) if forbid else "0"]
        while args and args[-1] == ("0" if len(args) > 1 else "_F"):
            args.pop()  # a default
        return f"({', '.join(args)})", rest, out

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

    def _app_row(self, f: App, scope: frozenset, y: str, want: bool) -> str:
        at = [i for i, a in enumerate(f.args) if a == y]
        if len(at) > 1 and f.name in self.lib:
            return self._pointwise(f, scope, y, want)
        key = [self.arg(a, scope) for a in f.args if a != y]
        if f.name in self.tables:
            rows = self._table_rows(f, at[0])
            return rows + "".join(f"[{a}]" for a in key)
        if f.name in self.lib:
            g = self._definition(f, at[0], want)
            return f"{g}({', '.join([*key, *['_w'] * want])})"
        if len(f.args) == 1 and f.name in self.labels:
            return self.label(f.name)
        raise EvalError(f"unknown predicate or label {f.name!r}")

    def _pointwise(self, f: Formula, scope: frozenset, y: str,
                   want: bool) -> str:
        """The row of f over y built one vertex at a time, for the calls
        and TC bodies whose row cannot be taken whole; a constant test is
        the row _F or 0."""
        t = self.test(f, scope | {y})
        if t == "True" or t == "False":
            return "_F" if t == "True" else "0"
        return f"_P(lambda {_ident(y)}: {t}{', _w' * want})"

    # -- tables, definitions and TC -----------------------------------------

    def _arity(self, f: App, kind: str):
        """Raise EvalError unless f has the arity of its definition, kind
        ("tabulated" or "defined") saying how the callee is bound."""
        k = len(self.lib[f.name].params)
        if k != len(f.args):
            raise EvalError(f"{f.name!r} called with arity {len(f.args)}, "
                            f"{kind} with {k}")

    def _table_rows(self, f: App, position: int) -> str:
        """The global holding the rows of f's table over one position."""
        self._arity(f, "tabulated")
        if any(is_set_var(a) for a in f.args):
            raise EvalError(f"table {f.name!r} takes vertex arguments")
        return self._global(("R", f.name, position))

    def _definition(self, f: App, at: Optional[int],
                    want: bool = False) -> str:
        """The global holding the compiled definition f calls, memoized
        per argument tuple: a test, or the row over its parameter at
        position at, which takes _w last if want."""
        d = self.lib[f.name]
        self._arity(f, "defined")
        if at is None:
            params, row = d.params, None
        else:
            params, row = d.params[:at] + d.params[at + 1:], d.params[at]
        return self._global(("W" if want else "D", d.body, params, row))

    def _tc(self, f: TC, scope: frozenset, reverse: bool = False) -> str:
        """Source of the reachability rows of f, or of its reverse, under
        the valuation of its outer variables."""
        outer = sorted((f.body.free - {f.u, f.v}) & scope)
        g = self._global(("K" if reverse else "C", f.body, (*outer, f.u),
                          f.v))
        return f"{g}({', '.join(map(_ident, outer))})"

    def _tc_row(self, f: TC, scope: frozenset, y: str, want: bool) -> str:
        if y in f.body.free - {f.u, f.v}:  # first: its recipe reads y
            return self._pointwise(f, scope, y, want)
        if f.a == f.b:
            self._tc(f, scope)  # bound for its names only
            return "_F"  # the closure is reflexive
        if f.b == y:
            return f"{self._tc(f, scope)}[{self.vertex(f.a, scope)}]"
        return f"{self._tc(f, scope, True)}[{self.vertex(f.b, scope)}]"
