"""Graph-to-graph interpretations: a domain formula and an edge formula
over set parameters, applied by evaluating both over a labeled graph.

The edge formula is required to come out symmetric and irreflexive on
the selected domain; a violation raises ``InterpretationError`` since
the constructions build their edge formulas as explicit symmetric
disjunctions, so asymmetry signals a wrong formula.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import LabeledGraph
from .logic import (
    DEFAULT_SET_CAP,
    Binding,
    Formula,
    PredicateLibrary,
    _plan,
    _tabulate_reached,
    app_refs,
    free_vars,
    is_set_var,
    parse_formula,
    parse_library,
)
from .search import _automorphisms, _first_of_classes
from .table import bits

DEFAULT_ENUM_CAP = 22


class InterpretationError(ValueError):
    pass


@dataclass
class Interpretation:
    """(domain formula in x, edge formula in x,y) over set parameters."""

    params: tuple[str, ...]
    domain: Formula
    edge: Formula
    library: PredicateLibrary = field(default_factory=PredicateLibrary)
    name: str = ""


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
    if len(set(params)) == len(params) and all(map(is_set_var, params)) \
            and not any(set(params) & (free_vars(d.body) - set(d.params))
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
    lib = I.library
    binding = Binding(G, set_cap, {})
    _tabulate_reached(binding, lib, called)
    dom_row = binding.function(_plan(G, lib, I.domain, params,
                                     _single_var(I.domain, "domain"),
                                     binding.tables))
    x, y = _pair_vars(I.edge, "edge")
    edge_row = binding.function(_plan(G, lib, I.edge, (*params, x), y,
                                      binding.tables))
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
                     enum_cap: int = DEFAULT_ENUM_CAP,
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
    graph, with its names and labels.
    """
    p = len(I.params)
    if G.n * p > enum_cap:
        raise InterpretationError(
            f"parameter enumeration needs 2^({G.n}*{p}) tuples; cap is "
            f"n*p <= {enum_cap}")
    subsets = [sum(1 << v for v in c) for r in range(G.n + 1)
               for c in itertools.combinations(range(G.n), r)]
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
    images = [_byte_images(s) for s in automorphisms
              if s != sorted(s)]  # the identity moves nothing
    for masks in tuples:
        if not any(_moves_earlier(tabs, masks) for tabs in images):
            yield masks


def _byte_images(perm: list[int]) -> list[list[int]]:
    """The image of a mask under the vertex map perm, by lookup: table k
    sends byte b to the image of the mask b << 8k."""
    n = len(perm)
    tabs = []
    for lo in range(0, n, 8):
        t = [0]
        for b in range(1, 1 << min(8, n - lo)):
            low = b & -b
            t.append(t[b ^ low] | 1 << perm[lo + low.bit_length() - 1])
        tabs.append(t)
    return tabs


def _moves_earlier(tabs: list[list[int]], masks: tuple[int, ...]) -> bool:
    """Whether the automorphism of the image tables maps the tuple onto
    an earlier one."""
    for S in masks:
        image = 0
        for k, t in enumerate(tabs):
            image |= t[S >> 8 * k & 255]
        if image != S:
            d = image ^ S
            return image & d & -d != 0
    return False


@dataclass
class Pipeline:
    """Ordered interpretations; each stage either carries explicit
    parameter values or binds its parameters from the stage input's
    labels."""

    stages: list[tuple[Interpretation, Optional[Sequence[Iterable[int]]]]]

    def __post_init__(self):
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

_HEADER_RE = re.compile(r"^params:\s*\[([^\]]*)\]\s*$")
_RULE_RE = re.compile(r"^(domain|edge)\s*\(([^)]*)\)\s*:=\s*(.*)$", re.DOTALL)


def parse_interpretation(text: str) -> Interpretation:
    """Parse an interpretation file.

    Layout: optional ``params: [Z1, Z2]`` header, inline ``def`` blocks,
    then ``domain(x) := ...`` and ``edge(x,y) := ...`` blocks.
    """
    lines = [re.sub(r"#.*", "", line) for line in text.splitlines()]
    params: tuple[str, ...] = ()
    blocks: list[list[str]] = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            params = tuple(p.strip() for p in m.group(1).split(",") if p.strip())
            continue
        if re.match(r"^(def |domain\s*\(|edge\s*\()", stripped):
            blocks.append([line])
        elif blocks:
            blocks[-1].append(line)
        else:
            raise InterpretationError(f"unexpected line: {stripped!r}")
    lib_blocks, domain_f, edge_f = [], None, None
    for block in blocks:
        joined = "\n".join(block).strip()
        m = _RULE_RE.match(joined)
        if m:
            which, _, body = m.groups()
            f = parse_formula(body)
            if which == "domain":
                domain_f = f
            else:
                edge_f = f
        else:
            lib_blocks.append(joined)
    if domain_f is None or edge_f is None:
        raise InterpretationError("file must define both domain and edge")
    lib = parse_library("\n".join(lib_blocks)) if lib_blocks else PredicateLibrary()
    return Interpretation(params, domain_f, edge_f, lib)
