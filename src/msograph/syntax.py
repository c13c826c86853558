"""The MSO formula dialect: AST, parser and predicate libraries.

Concrete syntax
---------------
  vertex variables   lowercase identifiers        x, y, z1, x'
  set variables      identifiers starting upper   X, Z1
  atoms              E(x,y)   name(x)   X(x)   x = y   x != y   true  false
  connectives        !  &  |  ->  <->  xor
  quantifiers        exists x.  forall x.  exists! x.  exists X.  forall X.
  closure            TC[u,v: body](a,b)
  predicate calls    name(x,y)  (defined in a library)

Library files are sequences of ``def name(x,y) := <formula>``, each
ending where its formula ends; ``#`` comments run to the end of the line.
The one parser here reads every text input (``interpret`` and ``cli``
loop over its productions), so any syntax error is a ``FormulaSyntaxError``
at an offset into the whole text.  ``logic`` evaluates what this module
parses and re-exports its names.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, Optional

from .records import Frozen, Record


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Formula(Frozen):
    """A node of the AST.  Nodes are immutable values: equality is
    structural, compared on a stack so that a deep formula needs no
    recursion, and so is the hash, as formulas key the plan cache of
    ``plans``.  A node is built after its children, and its constructor
    computes from their facts, once, the facts it keeps: ``free``, its
    free vertex- and set-variable names (call names excluded);
    ``calls``, the (name, arity) of every call in it; ``sets``, whether
    it holds a set quantifier; ``qf``, whether it holds no quantifier and
    no TC; and its hash.  A node's fields are its ``__match_args__``."""

    # the node classes are slotted too: a node has no __dict__ to pay for
    __slots__ = ("free", "calls", "sets", "qf", "_hash")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self):
        # string hashes differ between processes: a copy is built from
        # the fields alone and computes its facts where it lands.  The
        # nodes go as a flat post-order list, so a deep formula pickles
        # without recursion.
        pre = []  # preorder, the last subformula first
        stack = [self]
        while stack:
            g = stack.pop()
            fields = tuple(map(g.__getattribute__, g.__match_args__))
            pre.append((type(g), tuple(
                ... if isinstance(x, Formula) else x for x in fields)))
            stack += [x for x in fields if isinstance(x, Formula)]
        return _from_post_order, (pre[::-1],)


def _from_post_order(nodes: list) -> Formula:
    """The formula of a post-order list of (class, fields) with ``...``
    for each subformula, built through the constructors."""
    done: list[Formula] = []
    for cls, fields in nodes:
        cut = len(done) - fields.count(...)
        kids = iter(done[cut:])
        done[cut:] = [cls(*(next(kids) if x is ... else x for x in fields))]
    return done[0]


_NONE: frozenset = frozenset()
_set = object.__setattr__  # how a constructor sets what a node keeps


@functools.lru_cache(maxsize=1024)
def _shared(facts: frozenset) -> frozenset:
    """The kept set equal to facts, so that equal ``free`` and ``calls``
    of many nodes take the memory of one; only the sets met most recently
    are kept."""
    return facts


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, as a itself or b itself where one holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return _shared(a | b)


def _keep(node: Formula, free: frozenset, calls: frozenset, sets: bool,
          qf: bool, fields: tuple) -> None:
    """Set the facts of node, and its hash: that of its class by name
    (the hash of a class is its address, which moves from process to
    process) and its fields, in the order of ``__match_args__``."""
    _set(node, "free", free)
    _set(node, "calls", calls)
    _set(node, "sets", sets)
    _set(node, "qf", qf)
    _set(node, "_hash", hash((type(node).__name__, *fields)))


def _constant(self) -> None:
    _keep(self, _NONE, _NONE, False, True, ())


def _pair(self, x: str, y: str) -> None:
    _set(self, "x", x)
    _set(self, "y", y)
    _keep(self, _shared(frozenset((x, y))), _NONE, False, True, (x, y))


def _junction(self, left: Formula, right: Formula) -> None:
    """The constructor of a connective of two subformulas."""
    _set(self, "left", left)
    _set(self, "right", right)
    _keep(self, _union(left.free, right.free),
          _union(left.calls, right.calls), left.sets or right.sets,
          left.qf and right.qf, (left, right))


def _vertex_quantifier(self, var: str, body: Formula) -> None:
    _set(self, "var", var)
    _set(self, "body", body)
    free = body.free
    _keep(self, _shared(free - {var}) if var in free else free, body.calls,
          body.sets, False, (var, body))


def _set_quantifier(self, var: str, body: Formula) -> None:
    _set(self, "var", var)
    _set(self, "body", body)
    free = body.free
    _keep(self, _shared(free - {var}) if var in free else free, body.calls,
          True, False, (var, body))


class TrueF(Formula):
    __slots__ = ()
    __init__ = _constant


class FalseF(Formula):
    __slots__ = ()
    __init__ = _constant


class EdgeAtom(Formula):
    __slots__ = __match_args__ = ("x", "y")
    __init__ = _pair


class Eq(Formula):
    __slots__ = __match_args__ = ("x", "y")
    __init__ = _pair


class SetAtom(Formula):
    __slots__ = __match_args__ = ("set_name", "x")

    def __init__(self, set_name: str, x: str):
        _set(self, "set_name", set_name)
        _set(self, "x", x)
        _keep(self, _shared(frozenset((set_name, x))), _NONE, False, True,
              (set_name, x))


class App(Formula):
    """Reference to a named unary label or library predicate."""
    __slots__ = __match_args__ = ("name", "args")

    def __init__(self, name: str, args: tuple[str, ...]):
        _set(self, "name", name)
        _set(self, "args", args)
        _keep(self, _shared(frozenset(args)),
              _shared(frozenset(((name, len(args)),))), False, True,
              (name, args))


class Not(Formula):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _keep(self, body.free, body.calls, body.sets, body.qf, (body,))


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _junction


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _junction


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _junction


class Iff(Formula):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _junction


class ExistsV(Formula):
    __slots__ = __match_args__ = ("var", "body")
    __init__ = _vertex_quantifier


class ForallV(Formula):
    __slots__ = __match_args__ = ("var", "body")
    __init__ = _vertex_quantifier


class ExistsS(Formula):
    __slots__ = __match_args__ = ("var", "body")
    __init__ = _set_quantifier


class ForallS(Formula):
    __slots__ = __match_args__ = ("var", "body")
    __init__ = _set_quantifier


class TC(Formula):
    """(a, b) lies in the reflexive-transitive closure of
    {(u, v) | body} computed under the ambient valuation."""
    __slots__ = __match_args__ = ("u", "v", "body", "a", "b")

    def __init__(self, u: str, v: str, body: Formula, a: str, b: str):
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "body", body)
        _set(self, "a", a)
        _set(self, "b", b)
        _keep(self, _shared((body.free - {u, v}) | {a, b}), body.calls,
              body.sets, False, (u, v, body, a, b))


def is_set_var(name: str) -> bool:
    return name[0].isupper()


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f."""
    if isinstance(f, (Not, ExistsV, ForallV, ExistsS, ForallS, TC)):
        return (f.body,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    return ()


def free_vars(f: Formula) -> frozenset[str]:
    """Free vertex- and set-variable names of f (App names excluded)."""
    return f.free


def _rewrite(f: Formula, ctx, enter) -> Formula:
    """Rebuild f bottom-up on an explicit stack, so that a deep formula
    needs no recursion.

    ``enter(g, ctx)`` sees each node top-down, in preorder, with the
    context its parent passed on.  It returns either the formula that
    replaces g's whole subtree, or a pair (the context for g's
    subformulas, a function that builds g from their rebuilds)."""
    done: list[Formula] = []  # the rebuilt subformulas, the latest last
    # a (node, context) pair to enter, or a (build, arity) pair to finish
    stack: list = [(f, ctx)]
    while stack:
        g, c = stack.pop()
        if not isinstance(g, Formula):  # its c subformulas are rebuilt
            done[-c:] = [g(*done[-c:])]
            continue
        out = enter(g, c)
        if isinstance(out, Formula):
            done.append(out)
            continue
        inner, build = out
        kids = subformulas(g)
        stack.append((build, len(kids)))
        stack += [(k, inner) for k in reversed(kids)]
    return done[0]


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free vertex/set variables.  Binders shadow as usual, and a
    binder that would capture a new name is renamed to the first
    ``fresh_var`` of it that avoids every name of its node and every new
    name.  A subformula in which no name of the mapping is free is kept
    as it is."""
    return _rewrite(f, mapping, _substitute_enter)


def _substitute_enter(g: Formula, m: dict[str, str]):
    if m.keys().isdisjoint(g.free):
        return g
    def s(name):
        return m.get(name, name)
    if isinstance(g, (EdgeAtom, Eq)):
        return type(g)(s(g.x), s(g.y))
    if isinstance(g, SetAtom):
        return SetAtom(s(g.set_name), s(g.x))
    if isinstance(g, App):
        return App(g.name, tuple(s(a) for a in g.args))
    if isinstance(g, (Not, And, Or, Implies, Iff)):
        return m, type(g)
    if isinstance(g, TC):
        binders = (g.u, g.v)
    elif isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
        binders = (g.var,)
    else:
        raise TypeError(f"unknown node {g!r}")
    inner = {k: v for k, v in m.items() if k not in binders}
    # the new names that land free in the body, where a binder would
    # capture them
    landing = {v for k, v in inner.items() if k in g.body.free}
    new = {}
    for b in binders:
        if b in landing and b not in new:
            new[b] = fresh_var(b, all_vars(g) | set(m.values())
                               | set(new.values()))
    inner.update(new)
    if isinstance(g, TC):
        return inner, lambda body: TC(new.get(g.u, g.u), new.get(g.v, g.v),
                                      body, s(g.a), s(g.b))
    return inner, lambda body: type(g)(new.get(g.var, g.var), body)


def fresh_var(base: str, avoid: Iterable[str]) -> str:
    """The first of base_1, base_2, ... that is not in avoid."""
    avoid = set(avoid)
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<sym>:=|!=|[()\[\]{},.:=!&|])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>[0-9]+)
""", re.VERBOSE)

class _Token(Record):
    __match_args__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'ident', 'num', 'sym', 'arrow', 'arrow2', 'eof'
        self.text = text
        self.pos = pos

    def __str__(self) -> str:
        return repr(self.text) if self.kind != "eof" else "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":  # the end stays the current token
            self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok}", tok.pos)
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # precedence: <->  ->  xor  |  &  unary
    def formula(self) -> Formula:
        left = self.implication()
        while self.peek().kind == "arrow2":
            self.next()
            right = self.implication()
            left = Iff(left, right)
        return left

    def implication(self) -> Formula:
        left = self.xor_level()
        if self.peek().kind == "arrow":
            self.next()
            right = self.implication()  # right associative
            return Implies(left, right)
        return left

    def xor_level(self) -> Formula:
        left = self.disjunction()
        while self.peek().text == "xor":
            self.next()
            right = self.disjunction()
            # desugared: exactly one of the two holds
            left = Or(And(left, Not(right)), And(Not(left), right))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().text == "|":
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek().text == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.next()
            return Not(self.unary())
        if tok.text in ("exists", "forall"):
            return self.quantifier()
        if tok.text == "TC":
            return self.tc()
        return self.atom()

    def quantifier(self) -> Formula:
        kw = self.next()
        unique = False
        if kw.text == "exists" and self.peek().text == "!":
            self.next()
            unique = True
        var_tok = self.take("ident", "a variable after the quantifier")
        var = var_tok.text
        self.expect(".")
        body = self.formula()
        if unique:
            if is_set_var(var):
                raise FormulaSyntaxError("exists! only binds vertex variables",
                                         var_tok.pos)
            other = fresh_var(var, all_vars(body) | {var})
            # exists x. body & forall x'. body[x->x'] -> x' = x
            return ExistsV(var, And(body, ForallV(
                other, Implies(substitute(body, {var: other}), Eq(other, var)))))
        if kw.text == "exists":
            return ExistsS(var, body) if is_set_var(var) else ExistsV(var, body)
        return ForallS(var, body) if is_set_var(var) else ForallV(var, body)

    def tc(self) -> Formula:
        self.next()  # TC
        self.expect("[")
        u = self._var_arg()
        self.expect(",")
        v = self._var_arg()
        self.expect(":")
        body = self.formula()
        self.expect("]")
        self.expect("(")
        a = self._var_arg()
        self.expect(",")
        b = self._var_arg()
        self.expect(")")
        return TC(u, v, body, a, b)

    def atom(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.text == "true":
            return TrueF()
        if tok.text == "false":
            return FalseF()
        if tok.kind != "ident":
            raise FormulaSyntaxError(f"expected a formula, found {tok}", tok.pos)
        name = tok.text
        if self.peek().text == "(":
            args = self.bracketed("(", ")", self._var_arg)
            if not args:
                raise FormulaSyntaxError(f"{name} takes arguments", tok.pos)
            if name == "E":
                if len(args) != 2:
                    raise FormulaSyntaxError("E takes two arguments", tok.pos)
                return EdgeAtom(args[0], args[1])
            if is_set_var(name):
                if len(args) != 1:
                    raise FormulaSyntaxError(
                        f"set atom {name} takes one argument", tok.pos)
                return SetAtom(name, args[0])
            return App(name, tuple(args))
        # bare identifier: must be x = y / x != y
        op = self.peek().text
        if op in ("=", "!="):
            self.next()
            eq = Eq(name, self._var_arg())
            return eq if op == "=" else Not(eq)
        raise FormulaSyntaxError(
            f"expected '(', '=' or '!=' after identifier {name!r}",
            self.peek().pos)

    def take(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}, found {tok}", tok.pos)
        return tok

    def _var_arg(self) -> str:
        return self.take("ident", "a variable").text

    def _number(self) -> int:
        return int(self.take("num", "a vertex number").text)

    def bracketed(self, open: str, close: str,
                  item: Callable[[], object]) -> list:
        """``open item, ..., item close``, with no items as well."""
        self.expect(open)
        out = []
        if self.peek().text != close:
            out.append(item())
            while self.peek().text == ",":
                self.next()
                out.append(item())
        self.expect(close)
        return out

    # the productions that the readers loop over; each stops after its
    # last token

    def sentence(self) -> Formula:
        """A formula, or a syntax error where it nests too deeply."""
        try:
            return self.formula()
        except RecursionError:
            raise FormulaSyntaxError("formula nested too deeply to parse",
                                     self.peek().pos) from None

    def rule(self) -> tuple[_Token, tuple[str, ...], Formula]:
        """``name(x, y) := formula``: the name, its variables, the body."""
        name = self.take("ident", "a name")
        params = tuple(self.bracketed("(", ")", self._var_arg))
        self.expect(":=")
        return name, params, self.sentence()

    def definition(self) -> tuple[str, tuple[str, ...], Formula]:
        """``def name(x, y) := formula``, for ``PredicateLibrary.define``."""
        self.expect("def")
        name, params, body = self.rule()
        if not name.text[0].islower():
            raise FormulaSyntaxError(
                f"a defined name starts lowercase, not {name.text!r}",
                name.pos)
        return name.text, params, body

    def header(self) -> tuple[str, ...]:
        """``params: [Z1, Z2]``"""
        self.expect("params")
        self.expect(":")
        return tuple(self.bracketed("[", "]", self._var_arg))

    def binding(self) -> tuple[_Token, int | frozenset[int]]:
        """``name = n`` or ``Name = {n, ...}``: the name and its value."""
        name = self.take("ident", "a name")
        self.expect("=")
        if self.peek().text == "{":
            return name, frozenset(self.bracketed("{", "}", self._number))
        return name, self._number()


def parse_formula(text: str) -> Formula:
    """Parse the DSL; xor and exists! are desugared during parsing."""
    p = _Parser(text)
    f = p.sentence()
    if not p.at_end():
        tok = p.peek()
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return f


# ---------------------------------------------------------------------------
# Predicate libraries
# ---------------------------------------------------------------------------

class Definition(Frozen):
    __match_args__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[str, ...], body: Formula):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "body", body)


class Definitions(tuple):
    """A library's definitions in order, as a plan-cache key: a tuple
    whose hash and index by name are computed once, when first needed,
    so a library that is never planned never hashes its formulas."""

    @functools.cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def by_name(self) -> dict[str, Definition]:
        return {d.name: d for d in self}

    def __reduce__(self):
        # string hashes differ between processes: a copy rehashes
        return Definitions, (tuple(self),)


NO_DEFINITIONS = Definitions()


class LibraryError(ValueError):
    pass


class PredicateLibrary(Record):
    """Ordered named definitions.  A body may call a name defined later,
    but no definition may reach itself through calls."""

    __match_args__ = ("defs",)

    def __init__(self, defs: Optional[list[Definition]] = None):
        self.defs = [] if defs is None else defs
        self.by_name: dict[str, Definition] = {}
        self.key = NO_DEFINITIONS  # the plan-cache key of defs
        self._calls: dict[str, set[str]] = {}  # the names each body calls
        self._called: set[str] = set()  # the names any body calls
        for d in self.defs:
            self._add(d)

    def _add(self, d: Definition):
        refs = app_refs(d.body)
        self._check(d, refs)
        self.by_name[d.name] = d
        self.key = Definitions((*self.key, d))
        self._calls[d.name] = {ref for ref, _ in refs}
        self._called |= self._calls[d.name]

    def _check(self, d: Definition, refs: set[tuple[str, int]]):
        if d.name in self.by_name:
            raise LibraryError(f"duplicate definition of {d.name!r}")
        for ref, arity in refs:
            if ref in self.by_name:
                if arity != len(self.by_name[ref].params):
                    raise LibraryError(
                        f"{d.name!r} calls {ref!r} with arity {arity}, "
                        f"defined with {len(self.by_name[ref].params)}")
            elif ref == d.name:
                raise LibraryError(f"{d.name!r} references itself")
            # other names are labels/parameters, resolved at evaluation
        extra = {v for v in free_vars(d.body)
                 if not is_set_var(v)} - set(d.params)
        if extra:
            raise LibraryError(
                f"{d.name!r} has free vertex variables {sorted(extra)} "
                f"outside its parameters")
        cycle = self._cycle(d.name, refs)
        if cycle:
            raise LibraryError(
                f"{d.name!r} closes a cycle of calls: {' -> '.join(cycle)}")

    def _cycle(self, name: str, refs: set[tuple[str, int]]
               ) -> Optional[list[str]]:
        """The names on a path of calls from ``name`` back to itself, if
        ``name`` made the calls ``refs``, or None."""
        if name not in self._called:  # a new cycle needs an earlier call
            return None
        parent = self._walk(ref for ref, _ in refs)
        if name not in parent:
            return None
        path, u = [], parent[name]
        while u is not None:
            path.append(u)
            u = parent[u]
        return [name, *reversed(path), name]

    def _walk(self, names: Iterable[str]) -> dict[str, Optional[str]]:
        """Every name that calls from the definitions ``names`` reach,
        mapped to the definition whose call reached it first in a
        depth-first walk; the defined names in ``names`` map to None.
        The walk keeps its own stack, so a long chain of calls cannot
        exhaust Python's."""
        parent = dict.fromkeys(sorted(n for n in names if n in self.by_name))
        stack = list(parent)
        while stack:
            u = stack.pop()
            for c in sorted(self._calls[u]):
                if c not in parent:
                    parent[c] = u
                    if c in self.by_name:
                        stack.append(c)
        return parent

    def reach(self, names: Iterable[str]) -> list[Definition]:
        """The definitions named in ``names`` and those they reach through
        calls, in library order."""
        reached = self._walk(names)
        return [d for d in self.defs if d.name in reached]

    def define(self, name: str, params: Iterable[str], body: Formula):
        d = Definition(name, tuple(params), body)
        self._add(d)
        self.defs.append(d)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name


def app_refs(f: Formula) -> set[tuple[str, int]]:
    """The (name, arity) of every call in f."""
    return set(f.calls)


def parse_library(text: str) -> PredicateLibrary:
    """Parse a library file: ``def name(x,y) := formula``, repeated."""
    p = _Parser(text)
    lib = PredicateLibrary()
    while not p.at_end():
        lib.define(*p.definition())
    return lib


@functools.cache
def _packaged_library(name: str) -> PredicateLibrary:
    """The library ``libraries/<name>.mso`` that ships with msograph,
    read and parsed once."""
    from importlib import resources
    path = resources.files("msograph") / "libraries" / f"{name}.mso"
    return parse_library(path.read_text())


def all_vars(f: Formula) -> set[str]:
    """Every variable name of f, free or bound."""
    out = set(free_vars(f))
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
            out.add(g.var)
        elif isinstance(g, TC):
            out |= {g.u, g.v}
        stack += subformulas(g)
    return out
