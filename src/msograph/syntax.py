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

Library files are sequences of ``def name(x,y) := <formula>`` blocks (a
formula may span lines, up to the next ``def``); ``#`` starts a comment.
Definitions may only reference earlier definitions.  ``logic`` evaluates
what this module parses and re-exports its names.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Formula:
    """A node of the AST.  Nodes are immutable values: equality is
    structural, compared on a stack so that a deep formula needs no
    recursion, and so is the hash, as formulas key the plan cache of
    ``plans``.  A node is built after its children and computes from
    their facts, once, the facts it keeps: ``free``, its free vertex- and
    set-variable names (call names excluded); ``calls``, the (name,
    arity) of every call in it; ``sets``, whether it holds a set
    quantifier; and its hash."""

    # the node classes are slotted too: a node has no __dict__ to pay for
    __slots__ = ("free", "calls", "sets", "_hash")

    def __post_init__(self):
        free, calls, sets = self._facts()
        keep = object.__setattr__
        keep(self, "free", _SHARED.setdefault(free, free))
        keep(self, "calls", _SHARED.setdefault(calls, calls))
        keep(self, "sets", sets)
        keep(self, "_hash", hash((type(self), *(
            getattr(self, name) for name in self.__dataclass_fields__))))

    def _facts(self) -> tuple[frozenset, frozenset, bool]:
        """free, calls and sets of this node, from its children's."""
        return _NONE, _NONE, False

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
            for name in a.__dataclass_fields__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self):
        # string hashes differ between processes: a copy is built from
        # the fields alone and computes its facts where it lands (slotted
        # dataclasses bring their own __getstate__, which would not)
        return type(self), tuple(
            getattr(self, name) for name in self.__dataclass_fields__)


_NONE: frozenset = frozenset()
# one kept copy of each set of facts, so that equal ``free`` and ``calls``
# of many nodes take the memory of one
_SHARED: dict[frozenset, frozenset] = {}


def _joined(f) -> tuple[frozenset, frozenset, bool]:
    """The facts of a connective of two subformulas."""
    l, r = f.left, f.right
    return l.free | r.free, l.calls | r.calls, l.sets or r.sets


def _bound(f) -> tuple[frozenset, frozenset, bool]:
    """The facts of a quantifier."""
    b = f.body
    return (b.free - {f.var}, b.calls,
            b.sets or isinstance(f, (ExistsS, ForallS)))


@dataclass(frozen=True, eq=False, slots=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class EdgeAtom(Formula):
    x: str
    y: str

    def _facts(self):
        return frozenset((self.x, self.y)), _NONE, False


@dataclass(frozen=True, eq=False, slots=True)
class Eq(Formula):
    x: str
    y: str

    def _facts(self):
        return frozenset((self.x, self.y)), _NONE, False


@dataclass(frozen=True, eq=False, slots=True)
class SetAtom(Formula):
    set_name: str
    x: str

    def _facts(self):
        return frozenset((self.set_name, self.x)), _NONE, False


@dataclass(frozen=True, eq=False, slots=True)
class App(Formula):
    """Reference to a named unary label or library predicate."""
    name: str
    args: tuple[str, ...]

    def _facts(self):
        return (frozenset(self.args),
                frozenset(((self.name, len(self.args)),)), False)


@dataclass(frozen=True, eq=False, slots=True)
class Not(Formula):
    body: Formula

    def _facts(self):
        return self.body.free, self.body.calls, self.body.sets


@dataclass(frozen=True, eq=False, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    _facts = _joined


@dataclass(frozen=True, eq=False, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    _facts = _joined


@dataclass(frozen=True, eq=False, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula

    _facts = _joined


@dataclass(frozen=True, eq=False, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula

    _facts = _joined


@dataclass(frozen=True, eq=False, slots=True)
class ExistsV(Formula):
    var: str
    body: Formula

    _facts = _bound


@dataclass(frozen=True, eq=False, slots=True)
class ForallV(Formula):
    var: str
    body: Formula

    _facts = _bound


@dataclass(frozen=True, eq=False, slots=True)
class ExistsS(Formula):
    var: str
    body: Formula

    _facts = _bound


@dataclass(frozen=True, eq=False, slots=True)
class ForallS(Formula):
    var: str
    body: Formula

    _facts = _bound


@dataclass(frozen=True, eq=False, slots=True)
class TC(Formula):
    """(a, b) lies in the reflexive-transitive closure of
    {(u, v) | body} computed under the ambient valuation."""
    u: str
    v: str
    body: Formula
    a: str
    b: str

    def _facts(self):
        b = self.body
        return (b.free - {self.u, self.v}) | {self.a, self.b}, b.calls, b.sets


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


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free vertex/set variables.  Binders shadow as usual; no
    binder is renamed, so every new name must be fresh for f.

    The rebuild runs bottom-up on its own stack, so a deep formula needs
    no recursion; a subformula in which no name of the mapping is free
    is kept as it is."""
    done: list[Formula] = []  # the rebuilt subformulas, the latest last
    stack: list[tuple[Formula, dict[str, str], bool]] = [(f, mapping, False)]
    while stack:
        g, m, kids_done = stack.pop()
        def s(name):
            return m.get(name, name)
        if kids_done:
            if isinstance(g, TC):
                done[-1] = TC(g.u, g.v, done[-1], s(g.a), s(g.b))
            elif isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
                done[-1] = type(g)(g.var, done[-1])
            elif isinstance(g, Not):
                done[-1] = Not(done[-1])
            else:
                right = done.pop()
                done[-1] = type(g)(done[-1], right)
        elif m.keys().isdisjoint(g.free):
            done.append(g)
        elif isinstance(g, EdgeAtom):
            done.append(EdgeAtom(s(g.x), s(g.y)))
        elif isinstance(g, Eq):
            done.append(Eq(s(g.x), s(g.y)))
        elif isinstance(g, SetAtom):
            done.append(SetAtom(s(g.set_name), s(g.x)))
        elif isinstance(g, App):
            done.append(App(g.name, tuple(s(a) for a in g.args)))
        elif not subformulas(g):
            raise TypeError(f"unknown node {g!r}")
        else:
            inner = m
            if isinstance(g, TC):
                inner = {k: v for k, v in m.items() if k not in (g.u, g.v)}
            elif isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
                inner = {k: v for k, v in m.items() if k != g.var}
            stack.append((g, m, True))
            stack += [(c, inner, False) for c in reversed(subformulas(g))]
    return done[0]


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
  | (?P<neq>!=)
  | (?P<sym>[()\[\],.:=!&|])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
""", re.VERBOSE)

_KEYWORDS = {"exists", "forall", "xor", "true", "false", "TC", "E"}


@dataclass
class _Token:
    kind: str   # 'ident', 'sym', 'arrow', 'arrow2', 'neq', 'eof'
    text: str
    pos: int


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
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
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
        var_tok = self.next()
        if var_tok.kind != "ident":
            raise FormulaSyntaxError("expected a variable after quantifier", var_tok.pos)
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
        u = self.next()
        self.expect(",")
        v = self.next()
        if u.kind != "ident" or v.kind != "ident":
            raise FormulaSyntaxError("TC binder must be two vertex variables", u.pos)
        self.expect(":")
        body = self.formula()
        self.expect("]")
        self.expect("(")
        a = self.next()
        self.expect(",")
        b = self.next()
        self.expect(")")
        if a.kind != "ident" or b.kind != "ident":
            raise FormulaSyntaxError("TC arguments must be vertex variables", a.pos)
        return TC(u.text, v.text, body, a.text, b.text)

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
            raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        name = tok.text
        if self.peek().text == "(":
            self.next()
            args = [self._var_arg()]
            while self.peek().text == ",":
                self.next()
                args.append(self._var_arg())
            self.expect(")")
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
        if self.peek().text == "=":
            self.next()
            rhs = self.next()
            if rhs.kind != "ident":
                raise FormulaSyntaxError("expected a variable after '='", rhs.pos)
            return Eq(name, rhs.text)
        if self.peek().kind == "neq":
            self.next()
            rhs = self.next()
            if rhs.kind != "ident":
                raise FormulaSyntaxError("expected a variable after '!='", rhs.pos)
            return Not(Eq(name, rhs.text))
        raise FormulaSyntaxError(
            f"expected '(', '=' or '!=' after identifier {name!r}",
            self.peek().pos)

    def _var_arg(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise FormulaSyntaxError("expected a variable argument", tok.pos)
        return tok.text


def parse_formula(text: str) -> Formula:
    """Parse the DSL; xor and exists! are desugared during parsing."""
    p = _Parser(text)
    f = p.formula()
    if not p.at_end():
        tok = p.peek()
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return f


# ---------------------------------------------------------------------------
# Predicate libraries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[str, ...]
    body: Formula


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


@dataclass
class PredicateLibrary:
    """Ordered named definitions.  A body may call a name defined later,
    but no definition may reach itself through calls."""

    defs: list[Definition] = field(default_factory=list)

    def __post_init__(self):
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


_DEF_RE = re.compile(r"^def\s+([a-z][A-Za-z0-9_']*)\s*\(([^)]*)\)\s*:=\s*(.*)$",
                     re.DOTALL)


def parse_library(text: str) -> PredicateLibrary:
    """Parse a library file: ``def name(x,y) := formula`` blocks."""
    # strip comments, then split into def blocks
    lines = [re.sub(r"#.*", "", line) for line in text.splitlines()]
    blocks: list[str] = []
    current: list[str] = []
    for line in lines:
        if line.lstrip().startswith("def "):
            if current:
                blocks.append("\n".join(current))
            current = [line]
        elif line.strip():
            if not current:
                raise LibraryError(f"content before first def: {line.strip()!r}")
            current.append(line)
    if current:
        blocks.append("\n".join(current))
    lib = PredicateLibrary()
    for block in blocks:
        m = _DEF_RE.match(block.strip())
        if m is None:
            raise LibraryError(f"malformed definition block: {block.strip()[:60]!r}")
        name, params_text, body_text = m.groups()
        params = tuple(p.strip() for p in params_text.split(",") if p.strip())
        body = parse_formula(body_text)
        lib.define(name, params, body)
    return lib


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
