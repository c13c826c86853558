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
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import LabeledGraph
from .logic import (
    DEFAULT_SET_CAP,
    Binding,
    Formula,
    PredicateLibrary,
    _plan,
    _tabulatable,
    app_refs,
    free_vars,
    is_set_var,
    materialize,
    parse_formula,
    parse_library,
)
from .search import isomorphism_classes
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
    names and the input labels restricted to the output domain.  Only
    the library definitions that the two formulas reach are tabulated,
    in one binding that both formulas share.
    """
    if params is None:
        missing = [p for p in I.params if p not in G.labels]
        if missing:
            raise InterpretationError(
                f"parameters {missing} not given and not labels of the graph")
        bound = {}
    else:
        if len(params) != len(I.params):
            raise InterpretationError(
                f"expected {len(I.params)} parameter values, got {len(params)}")
        bound = {name: frozenset(vals) for name, vals in zip(I.params, params)}
    work = G.with_labels(bound) if bound else G
    lib = I.library
    binding = Binding(work, set_cap, {})
    if lib.defs:  # a census applies a library-free one thousands of times
        called = {name for f in (I.domain, I.edge) for name, _ in app_refs(f)}
        for d in lib.reach(called):
            if _tabulatable(d):
                materialize(work, lib, d.name, binding=binding)
    dom_row = binding.function(_plan(work, lib, I.domain, (),
                                     _single_var(I.domain, "domain"),
                                     binding.tables))
    x, y = _pair_vars(I.edge, "edge")
    edge_row = binding.function(_plan(work, lib, I.edge, (x,), y,
                                      binding.tables))
    dom = dom_row()
    domain = list(bits(dom))
    rows = {x: edge_row(x) & dom for x in domain}
    # the transpose above the diagonal: y > x is in cols[x] iff x is in rows[y]
    cols = [0] * work.n
    for y in domain:
        for x in bits(rows[y] & ((1 << y) - 1)):
            cols[x] |= 1 << y
    edges = []
    for x in domain:
        if (rows[x] >> x) & 1:
            raise InterpretationError(
                f"edge formula is reflexive at {work.name_of(x)}")
        above = dom & -(2 << x)  # the domain vertices after x
        odd = (rows[x] ^ cols[x]) & above
        if odd:
            y = (odd & -odd).bit_length() - 1
            raise InterpretationError(
                f"edge formula asymmetric on "
                f"({work.name_of(x)}, {work.name_of(y)})")
        edges += [(x, y) for y in bits(rows[x] & above)]
    dom_set = set(domain)
    newid = {v: i for i, v in enumerate(domain)}
    names = {newid[v]: work.name_of(v) for v in domain}
    labels = {k: frozenset(newid[v] for v in vs if v in dom_set)
              for k, vs in work.labels.items()}
    return LabeledGraph.build(len(domain),
                              [(newid[u], newid[v]) for (u, v) in edges],
                              labels=labels, names=names)


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
    """One output per parameter tuple (all subsets of V(G) per parameter).

    With ``dedupe`` the stream is filtered up to isomorphism.
    """
    p = len(I.params)
    if G.n * p > enum_cap:
        raise InterpretationError(
            f"parameter enumeration needs 2^({G.n}*{p}) tuples; cap is "
            f"n*p <= {enum_cap}")
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(G.n), r) for r in range(G.n + 1)))
    outputs = (apply(I, G, [frozenset(c) for c in choice], set_cap=set_cap)
               for choice in itertools.product(subsets, repeat=p))
    yield from isomorphism_classes(outputs) if dedupe else outputs


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
