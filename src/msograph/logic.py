"""The MSO formula dialect: AST, parser, libraries, one evaluator.

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
Definitions may only reference earlier definitions.

Evaluation: ``evaluate``, ``materialize`` and the interpretations all
compile a formula through ``compile_formula`` into a Python function
over vertex indices and set bitmasks on one graph.  Vertex quantifiers
range over V(G); set quantifiers enumerate subsets of V(G) and raise
``SetQuantifierCapError`` when reached on a graph larger than the cap.
TC is a first-class primitive computed by fixpoint, once per valuation
of its outer variables, so formulas built from it stay polynomial to
evaluate.  Names are resolved while compiling: an unassigned variable
or an unknown predicate raises ``EvalError`` before evaluation.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .graphs import LabeledGraph

DEFAULT_SET_CAP = 22


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


class SetQuantifierCapError(EvalError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"set quantifier over a {n}-vertex graph exceeds the cap {cap}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class EdgeAtom(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class Eq(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class SetAtom(Formula):
    set_name: str
    x: str


@dataclass(frozen=True)
class App(Formula):
    """Reference to a named unary label or library predicate."""
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsV(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallV(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsS(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallS(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class TC(Formula):
    """(a, b) lies in the reflexive-transitive closure of
    {(u, v) | body} computed under the ambient valuation."""
    u: str
    v: str
    body: Formula
    a: str
    b: str


def is_set_var(name: str) -> bool:
    return name[0].isupper()


def free_vars(f: Formula) -> frozenset[str]:
    """Free vertex- and set-variable names of f (App names excluded)."""
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (EdgeAtom, Eq)):
        return frozenset({f.x, f.y})
    if isinstance(f, SetAtom):
        return frozenset({f.set_name, f.x})
    if isinstance(f, App):
        return frozenset(f.args)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (ExistsV, ForallV, ExistsS, ForallS)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, TC):
        return (free_vars(f.body) - {f.u, f.v}) | {f.a, f.b}
    raise TypeError(f"unknown node {f!r}")


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free vertex/set variables.  Binders shadow as usual; no
    binder is renamed, so every new name must be fresh for f."""
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
        return Not(substitute(f.body, mapping))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, (ExistsV, ForallV, ExistsS, ForallS)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        return type(f)(f.var, substitute(f.body, inner))
    if isinstance(f, TC):
        inner = {k: v for k, v in mapping.items() if k not in (f.u, f.v)}
        return TC(f.u, f.v, substitute(f.body, inner), s(f.a), s(f.b))
    raise TypeError(f"unknown node {f!r}")


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
            other = fresh_var(var, _all_vars(body) | {var})
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


class LibraryError(ValueError):
    pass


@dataclass
class PredicateLibrary:
    """Ordered named definitions; a body may only reference earlier names."""

    defs: list[Definition] = field(default_factory=list)

    def __post_init__(self):
        self.by_name: dict[str, Definition] = {}
        for d in self.defs:
            self._check(d)
            self.by_name[d.name] = d

    def _check(self, d: Definition):
        if d.name in self.by_name:
            raise LibraryError(f"duplicate definition of {d.name!r}")
        for ref, arity in _app_refs(d.body):
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

    def define(self, name: str, params: Iterable[str], body: Formula):
        d = Definition(name, tuple(params), body)
        self._check(d)
        self.defs.append(d)
        self.by_name[name] = d

    def extended(self, other: "PredicateLibrary") -> "PredicateLibrary":
        return PredicateLibrary(self.defs + other.defs)

    def arity(self, name: str) -> int:
        return len(self.by_name[name].params)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name


def _app_refs(f: Formula) -> set[tuple[str, int]]:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, App):
            out.add((g.name, len(g.args)))
        elif isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += [g.left, g.right]
        elif isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
            stack.append(g.body)
        elif isinstance(g, TC):
            stack.append(g.body)
    return out


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


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
#
# A formula becomes the source of one Python function, exec'd against the
# globals of a _Compiler for one graph.  Quantifiers become any()/all();
# a TC node and a call to a definition without a table each get a
# compiled function of their own, memoized per argument tuple.

# AST levels per generated function; deeper subformulas continue in a
# function of their own, because Python's parser refuses more than 200
# nested brackets and a level can open three.
_MAX_NESTING = 50


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
        seen = 1 << start
        frontier = seen
        while frontier:
            new = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                new |= succ[bit.bit_length() - 1]
            frontier = new & ~seen
            seen |= new
        rows.append(seen)
    return rows


def _tc_rows(body, n: int):
    """The reachability rows of TC over ``body(*outer, u, v)`` as a function
    of the outer variables, computed once per valuation."""
    @functools.cache
    def rows(*outer):
        succ = [0] * n
        for p in range(n):
            for q in range(n):
                if body(*outer, p, q):
                    succ[p] |= 1 << q
        return _reach_rows(succ)
    return rows


class _Compiler:
    """Compiles formulas over one graph; the generated functions share its
    globals: adjacency, tables, label masks, compiled definitions and TC
    closures."""

    def __init__(self, G: LabeledGraph, lib: Optional[PredicateLibrary],
                 set_cap: int, tables: Optional[dict]):
        self.G = G
        self.lib = lib or PredicateLibrary()
        self.tables = tables if tables is not None else {}
        n = G.n

        def subsets():
            if n > set_cap:
                raise SetQuantifierCapError(n, set_cap)
            return range(1 << n)

        self.globals: dict = {"_A": G.adjacency_masks(), "_R": range(n),
                              "_S": subsets}
        self.names: dict[tuple, str] = {}

    def function(self, f: Formula, params: Sequence[str]):
        """A Python function of params equivalent to f."""
        if len(set(params)) < len(params):
            raise EvalError(f"repeated variable in {list(params)}")
        expr = self.emit(f, frozenset(params))
        src = (f"def _f({', '.join(map(_ident, params))}):\n"
               f"    return bool({expr})\n")
        namespace: dict = {}
        exec(src, self.globals, namespace)
        return namespace["_f"]

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

    def emit(self, f: Formula, scope: frozenset, depth: int = 0) -> str:
        if depth == _MAX_NESTING:
            params = sorted(free_vars(f) & scope)
            g = self._new_global("F", self.function(f, params))
            return f"{g}({', '.join(map(_ident, params))})"
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
            return self._app(f, scope)
        if isinstance(f, Not):
            return f"(not {self.emit(f.body, scope, d)})"
        if isinstance(f, And):
            return (f"({self.emit(f.left, scope, d)} and "
                    f"{self.emit(f.right, scope, d)})")
        if isinstance(f, Or):
            return (f"({self.emit(f.left, scope, d)} or "
                    f"{self.emit(f.right, scope, d)})")
        if isinstance(f, Implies):
            return (f"((not {self.emit(f.left, scope, d)}) or "
                    f"{self.emit(f.right, scope, d)})")
        if isinstance(f, Iff):
            return (f"(bool({self.emit(f.left, scope, d)}) == "
                    f"bool({self.emit(f.right, scope, d)}))")
        if isinstance(f, (ExistsV, ForallV, ExistsS, ForallS)):
            test = "any" if isinstance(f, (ExistsV, ExistsS)) else "all"
            domain = "_R" if isinstance(f, (ExistsV, ForallV)) else "_S()"
            body = self.emit(f.body, scope | {f.var}, d)
            return f"{test}({body} for {_ident(f.var)} in {domain})"
        if isinstance(f, TC):
            outer = sorted((free_vars(f.body) - {f.u, f.v}) & scope)
            g = self._global(("C", f.u, f.v, f.body, tuple(outer)),
                             lambda: _tc_rows(self.function(
                                 f.body, outer + [f.u, f.v]), self.G.n))
            return (f"(({g}({', '.join(map(_ident, outer))})"
                    f"[{self.vertex(f.a, scope)}] >> "
                    f"{self.vertex(f.b, scope)}) & 1)")
        raise TypeError(f"unknown node {f!r}")

    def _app(self, f: App, scope: frozenset) -> str:
        args = ", ".join(self.set_mask(a, scope) if is_set_var(a)
                         else self.vertex(a, scope) for a in f.args)
        if f.name in self.tables:
            g = self._global(("T", f.name), lambda: self.tables[f.name])
            return f"(({args},) in {g})"
        if f.name in self.lib:
            d = self.lib.by_name[f.name]
            if len(d.params) != len(f.args):
                raise EvalError(f"{f.name!r} called with arity {len(f.args)}, "
                                f"defined with {len(d.params)}")
            g = self._global(("D", f.name), lambda: functools.cache(
                self.function(d.body, d.params)))
            return f"{g}({args})"
        if len(f.args) == 1 and f.name in self.G.labels:
            return f"(({self.label(f.name)} >> {args}) & 1)"
        raise EvalError(f"unknown predicate or label {f.name!r}")


def compile_formula(G: LabeledGraph, lib: Optional[PredicateLibrary],
                    f: Formula, params: Sequence[str], *,
                    set_cap: int = DEFAULT_SET_CAP,
                    tables: Optional[dict[str, set[tuple[int, ...]]]] = None):
    """A Python function of params (vertex indices for vertex variables,
    bitmasks for set variables) equivalent to f on G.

    Every other free name of f must be a label of G and every call must
    name a table, a library definition or a label; otherwise EvalError is
    raised here, before anything is evaluated.
    """
    return _Compiler(G, lib, set_cap, tables).function(f, list(params))


def evaluate(G: LabeledGraph, lib: Optional[PredicateLibrary], f: Formula,
             valuation: Optional[dict] = None, *,
             set_cap: int = DEFAULT_SET_CAP,
             tables: Optional[dict[str, set[tuple[int, ...]]]] = None) -> bool:
    """Evaluate f on G under the valuation (vertex vars -> vertex index,
    set vars -> vertex set or bitmask)."""
    valuation = valuation or {}
    fn = compile_formula(G, lib, f, list(valuation), set_cap=set_cap,
                         tables=tables)
    return fn(*(_mask(val) if is_set_var(name) and not isinstance(val, int)
                else val for name, val in valuation.items()))


MAX_MATERIALIZE_ARITY = 3


def _tabulatable(d: Definition) -> bool:
    return len(d.params) <= MAX_MATERIALIZE_ARITY and \
        not any(is_set_var(p) for p in d.params)


def materialize(G: LabeledGraph, lib: PredicateLibrary, name: str, *,
                set_cap: int = DEFAULT_SET_CAP,
                tables: Optional[dict[str, set[tuple[int, ...]]]] = None
                ) -> set[tuple[int, ...]]:
    """Full extension of a library predicate over G, computed bottom-up.

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
            fn = comp.function(d.body, d.params)
            tables[dep] = {args for args in itertools.product(
                range(G.n), repeat=len(d.params)) if fn(*args)}
    return tables[name]


def _dependency_order(lib: PredicateLibrary, name: str) -> list[str]:
    """Dependencies of name (inclusive) in library order."""
    wanted = {name}
    for d in reversed(lib.defs):
        if d.name in wanted:
            for ref, _ in _app_refs(d.body):
                if ref in lib:
                    wanted.add(ref)
    return [d.name for d in lib.defs if d.name in wanted]


def materialize_all(G: LabeledGraph, lib: PredicateLibrary, *,
                    set_cap: int = DEFAULT_SET_CAP
                    ) -> dict[str, set[tuple[int, ...]]]:
    """Tables for every tabulatable definition in the library."""
    tables: dict[str, set[tuple[int, ...]]] = {}
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
    if X in _all_vars(f):
        raise ValueError(f"{X!r} occurs in the formula")
    return _relativize(f, X)


def _all_vars(f: Formula) -> set[str]:
    out = set(free_vars(f))
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (ExistsV, ForallV, ExistsS, ForallS)):
            out.add(g.var)
            stack.append(g.body)
        elif isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += [g.left, g.right]
        elif isinstance(g, TC):
            out |= {g.u, g.v}
            stack.append(g.body)
    return out


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
    avoid = _all_vars(body) | {a, b, u, v}
    if a in (u, v) or b in (u, v):
        u2 = fresh_var(u, avoid)
        v2 = fresh_var(v, avoid | {u2})
        body = substitute(body, {u: u2, v: v2})
        u, v = u2, v2
    X = fresh_var("X", avoid).capitalize()
    closed = ForallV(u, ForallV(v, Implies(And(SetAtom(X, u), body),
                                           SetAtom(X, v))))
    return ForallS(X, Implies(And(SetAtom(X, a), closed), SetAtom(X, b)))
