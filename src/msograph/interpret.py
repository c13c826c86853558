"""Graph-to-graph interpretations: a domain formula and an edge formula
over set parameters, applied by evaluating both over a labeled graph.

The edge formula is required to come out symmetric and irreflexive on
the selected domain; a violation raises ``InterpretationError`` since
the constructions build their edge formulas as explicit symmetric
disjunctions, so asymmetry signals a wrong formula.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import LabeledGraph
from .logic import (
    DEFAULT_SET_CAP,
    Binding,
    Formula,
    PredicateLibrary,
    app_refs,
    free_vars,
    is_set_var,
    parse_formula,
)
from .records import Frozen, Record
from .search import _automorphisms, _first_of_classes, _mask_map
from .syntax import FormulaSyntaxError, _Parser
from .table import bits

DEFAULT_ENUM_CAP = 22


class InterpretationError(ValueError):
    pass


class Interpretation(Frozen):
    """(domain formula in x, edge formula in x,y) over set parameters."""

    __match_args__ = ("params", "domain", "edge", "library", "name")

    def __init__(self, params: tuple[str, ...], domain: Formula,
                 edge: Formula, library: Optional[PredicateLibrary] = None,
                 name: str = ""):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "library", PredicateLibrary()
                           if library is None else library)
        object.__setattr__(self, "name", name)
        repeated = sorted({p for p in self.params if self.params.count(p) > 1})
        if repeated:
            raise InterpretationError(f"parameters {repeated} are repeated")


def apply(I: Interpretation, G: LabeledGraph,
          params: Optional[Sequence[Iterable[int]]] = None, *,
          set_cap: int = DEFAULT_SET_CAP) -> LabeledGraph:
    """Apply the interpretation to (G, parameter values).

    Parameter values are vertex subsets, positionally matching
    ``I.params``; if omitted, every parameter name must be present as a
    label of G and is bound from it.  The output carries provenance
    names and the input labels, the parameters among them, restricted
    to the output domain.  This is the sweep of ``apply_all_params``
    over one tuple: only the library definitions that the two formulas
    reach are tabulated, in one binding that both formulas share.
    """
    if params is None:
        missing = [p for p in I.params if p not in G.labels]
        if missing:
            raise InterpretationError(
                f"parameters {missing} not given and not labels of the graph")
        params = [G.labels[p] for p in I.params]
    elif len(params) != len(I.params):
        raise InterpretationError(
            f"expected {len(I.params)} parameter values, got {len(params)}")
    masks = []
    for name, vals in zip(I.params, params):
        vals = frozenset(vals)
        G._check_label(name, vals)
        masks.append(sum(1 << v for v in vals))
    _, build = next(_sweep(I, G, [tuple(masks)], set_cap))
    return build()


def _sweep(I: Interpretation, G: LabeledGraph,
           tuples: Iterable[tuple[int, ...]],
           set_cap: int) -> Iterator[tuple[tuple[int, ...],
                                           Callable[[], LabeledGraph]]]:
    """The output of I on G under each tuple of parameter masks, in order,
    as its adjacency rows and the call that builds it as a graph.

    G is bound once, and the parameters are set-variable arguments of
    the two formulas.  Where a parameter is not a set variable, or a
    reached definition mentions one, each tuple binds the parameters as
    labels of its own copy of G instead.
    """
    called = {name for f in (I.domain, I.edge) for name, _ in app_refs(f)}
    reached = I.library.reach(called)
    params = I.params
    if all(map(is_set_var, params)) and \
            not any(set(params) & (free_vars(d.body) - set(d.params))
                    for d in reached):
        binding, dom_row, edge_row = _bind(I, G, called, params, set_cap)
        for masks in tuples:
            binding.forget()  # memos keyed by the last tuple's masks
            domain, adj = _rows(G, dom_row(*masks), edge_row, masks)
            yield adj, partial(_output, G, params, masks, domain, adj)
    else:
        for masks in tuples:
            work = G.with_labels({p: bits(m) for p, m in zip(params, masks)})
            _, dom_row, edge_row = _bind(I, work, called, (), set_cap)
            domain, adj = _rows(work, dom_row(), edge_row, ())
            yield adj, partial(_output, work, (), (), domain, adj)


def _bind(I: Interpretation, G: LabeledGraph, called: set[str],
          params: tuple[str, ...], set_cap: int):
    """A binding of G with the definitions that the called names reach
    tabulated, and in it the domain row and the edge row function, both
    taking params first."""
    binding = Binding(G, I.library, set_cap)
    binding.tabulate(called)
    dom_row = binding.compile(I.domain, params,
                              _single_var(I.domain, "domain"))
    x, y = _pair_vars(I.edge, "edge")
    edge_row = binding.compile(I.edge, (*params, x), y)
    return binding, dom_row, edge_row


def _rows(G: LabeledGraph, dom: int, edge_row, masks: tuple[int, ...]
          ) -> tuple[list[int], tuple[int, ...]]:
    """The vertices of dom, and the adjacency rows of the graph on them
    whose edges are the rows edge_row(*masks, x), checked for symmetry
    and irreflexivity and renumbered over 0..m-1 in vertex order."""
    domain = list(bits(dom))
    rows = {x: edge_row(*masks, x) & dom for x in domain}
    place = [0] * G.n  # the bit of each domain vertex in the output
    for i, v in enumerate(domain):
        place[v] = 1 << i
    # the transpose above the diagonal: y > x is in cols[x] iff x is in
    # rows[y]; and out, each pair below the diagonal renumbered both
    # ways, which is the whole of the rows once the checks below pass
    cols = [0] * G.n
    out = [0] * G.n
    for y in domain:
        for x in bits(rows[y] & ((1 << y) - 1)):
            cols[x] |= 1 << y
            out[x] |= place[y]
            out[y] |= place[x]
    for x in domain:
        if (rows[x] >> x) & 1:
            raise InterpretationError(
                f"edge formula is reflexive at {G.name_of(x)}")
        above = dom & -(2 << x)  # the domain vertices after x
        odd = (rows[x] ^ cols[x]) & above
        if odd:
            y = (odd & -odd).bit_length() - 1
            raise InterpretationError(
                f"edge formula asymmetric on "
                f"({G.name_of(x)}, {G.name_of(y)})")
    return domain, tuple([out[x] for x in domain])


def _output(G: LabeledGraph, params: tuple[str, ...],
            masks: tuple[int, ...], domain: list[int],
            adj: tuple[int, ...]) -> LabeledGraph:
    """The graph of the rows adj over the vertices domain of G, with
    their provenance names and the labels of G, each parameter bound to
    its mask, restricted to the domain."""
    newid = {v: i for i, v in enumerate(domain)}
    labels = dict(G.labels)
    labels.update((p, bits(m)) for p, m in zip(params, masks))
    labels = {k: frozenset(newid[v] for v in vs if v in newid)
              for k, vs in labels.items()}
    names = {i: G.name_of(v) for i, v in enumerate(domain)}
    edges = frozenset((x, y) for x, row in enumerate(adj)
                      for y in bits(row & -(2 << x)))
    return LabeledGraph._unchecked(len(domain), edges, labels, names, adj)


def _single_var(f: Formula, what: str) -> str:
    fv = [v for v in free_vars(f) if not is_set_var(v)]
    if len(fv) > 1:
        raise InterpretationError(f"{what} formula has free variables {sorted(fv)}")
    return fv[0] if fv else "x"


def _pair_vars(f: Formula, what: str) -> tuple[str, str]:
    fv = sorted(v for v in free_vars(f) if not is_set_var(v))
    if len(fv) > 2:
        raise InterpretationError(f"{what} formula has free variables {fv}")
    fv += [v for v in "xy" if v not in fv][:2 - len(fv)]
    return fv[0], fv[1]


def apply_all_params(I: Interpretation, G: LabeledGraph, *,
                     dedupe: bool = False,
                     set_cap: int = DEFAULT_SET_CAP
                     ) -> Iterator[LabeledGraph]:
    """One output per parameter tuple (all subsets of V(G) per parameter),
    the tuples in product order of the subsets listed by size, then
    lexicographically; one sweep of ``apply`` over them.

    With ``dedupe`` the stream is filtered up to isomorphism, and a tuple
    that a label-keeping automorphism of G maps onto an earlier tuple is
    skipped unapplied: its output is isomorphic to that earlier tuple's,
    so the filtered stream is the same.  The filter reads each output's
    adjacency rows; only the first output of a class is built as a
    graph, with its names and labels.  More than ``DEFAULT_ENUM_CAP``
    vertices times parameters raises InterpretationError.
    """
    p = len(I.params)
    if G.n * p > DEFAULT_ENUM_CAP:
        raise InterpretationError(
            f"parameter enumeration needs 2^({G.n}*{p}) tuples; cap is "
            f"n*p <= {DEFAULT_ENUM_CAP}")
    singletons = [1 << v for v in range(G.n)]
    subsets = [sum(c) for r in range(G.n + 1)
               for c in itertools.combinations(singletons, r)]
    tuples = itertools.product(subsets, repeat=p)
    if not dedupe:
        for _, build in _sweep(I, G, tuples, set_cap):
            yield build()
        return
    # above the set cap, whether a set quantifier is reached (and raises)
    # may hang on the order of the vertices, which automorphisms do not keep
    if p and G.n <= set_cap:
        tuples = _orbit_leaders(tuples, _automorphisms(G))
    for build in _first_of_classes(_sweep(I, G, tuples, set_cap)):
        yield build()


def _orbit_leaders(tuples: Iterable[tuple[int, ...]],
                   automorphisms: list[list[int]]
                   ) -> Iterator[tuple[int, ...]]:
    """The tuples of masks that no automorphism maps onto an earlier one.

    An automorphism keeps the size of a subset, and of two subsets of
    one size the one holding the least vertex of their symmetric
    difference comes first; so at the first mask S of a tuple that an
    automorphism moves, the image of S comes first iff it holds the
    least vertex of S ^ image.
    """
    maps = [_mask_map(s) for s in automorphisms
            if s != sorted(s)]  # the identity moves nothing
    for masks in tuples:
        for image in maps:
            for S in masks:
                moved = image(S)
                if moved != S:
                    break
            else:  # this automorphism fixes the tuple
                continue
            d = moved ^ S
            if moved & d & -d:  # it maps the tuple onto an earlier one
                break
        else:
            yield masks


class Pipeline(Record):
    """Ordered interpretations; each stage either carries explicit
    parameter values or binds its parameters from the stage input's
    labels."""

    __match_args__ = ("stages",)

    def __init__(self, stages: list[tuple[
            Interpretation, Optional[Sequence[Iterable[int]]]]]):
        self.stages = stages
        if not self.stages:
            raise InterpretationError("pipeline must be nonempty")


def compose_pipeline(p: Pipeline, G: LabeledGraph, *,
                     set_cap: int = DEFAULT_SET_CAP) -> LabeledGraph:
    """Left stage applied first; equal to nesting the apply calls."""
    H = G
    for I, params in p.stages:
        H = apply(I, H, params, set_cap=set_cap)
    return H


def builtin_complement() -> Interpretation:
    # The x != y guard keeps the edge relation irreflexive; without it the
    # complement formula would put every vertex in relation with itself.
    return Interpretation((), parse_formula("x = x"),
                          parse_formula("x != y & !E(x,y)"), name="complement")


def builtin_induced() -> Interpretation:
    return Interpretation(("Z",), parse_formula("Z(x)"),
                          parse_formula("E(x,y)"), name="induced")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# each rule and the number of vertex variables it declares
_RULES = {"domain": 1, "edge": 2}


def parse_interpretation(text: str) -> Interpretation:
    """Parse an interpretation file: an optional ``params: [Z1, Z2]``
    header, ``def`` definitions, and the rules ``domain(x) := ...`` and
    ``edge(x, y) := ...``, in any order; a rule declares the free vertex
    variables of its formula."""
    p = _Parser(text)
    params: tuple[str, ...] = ()
    rules: dict[str, Formula] = {}
    lib = PredicateLibrary()
    given: set[str] = set()  # the header and the rules read so far
    while not p.at_end():
        word = p.peek()
        if word.text == "def":
            lib.define(*p.definition())
            continue
        if word.text in given:
            raise InterpretationError(f"{word.text!r} is given twice (again "
                                      f"at position {word.pos})")
        given.add(word.text)
        if word.text == "params":
            params = p.header()
        elif word.text in _RULES:
            _, declared, body = p.rule()
            free = {v for v in free_vars(body) if not is_set_var(v)}
            if len(declared) != _RULES[word.text] or free - set(declared):
                raise InterpretationError(
                    f"rule {word.text!r} (at position {word.pos}) must "
                    f"declare {_RULES[word.text]} variables, its free vertex "
                    f"variables {sorted(free)} among them, not {list(declared)}")
            rules[word.text] = body
        else:
            raise FormulaSyntaxError(
                f"expected 'def', 'params', 'domain' or 'edge', found {word}",
                word.pos)
    if len(rules) < len(_RULES):
        raise InterpretationError("file must define both domain and edge")
    return Interpretation(params, rules["domain"], rules["edge"], lib)
