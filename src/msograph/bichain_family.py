"""Universal bichain graphs and their grid interpretation.

Z_n has vertices z_{i,j} on an n x n point grid (i = row, j = column,
both 1-based) and edges given by three rules: (i) j odd, j' = j + 1 and
i < i'; (ii) j even, j' = j + 1 and i' <= i; (iii) j even, j' odd and
j' >= j + 3 (a complete bipartite join).  Every bichain graph on at
most n vertices is an induced subgraph of Z_n.

With five marker labels, a first-order interpretation turns Z_{n+2}
into exactly the n x n grid.  Split graphs reach the bichain world by
deleting the clique edges, and the bipartite permutation graphs P_n
coincide with the word family of the all-2s word.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import LabeledGraph
from .interpret import Interpretation
from .logic import PredicateLibrary, parse_formula
from .syntax import _packaged_library


class BichainError(ValueError):
    pass


BICHAIN_LABELS = ("top", "bottom", "even", "first", "last")


def _zn_edge(i: int, j: int, i2: int, j2: int) -> bool:
    """Edge rule between z_{i,j} and z_{i2,j2} (1-based, j <= j2)."""
    if j > j2 or (j, i) == (j2, i2):
        return False
    if j % 2 == 1 and j2 == j + 1:
        return i < i2
    if j % 2 == 0 and j2 == j + 1:
        return i2 <= i
    return j % 2 == 0 and j2 % 2 == 1 and j2 >= j + 3


def build_Zn(n: int, with_labels: bool = True) -> LabeledGraph:
    """The universal bichain graph Z_n; names "z(i,j)"."""
    if n < 1:
        raise BichainError(f"n must be >= 1, got {n}")
    def idx(i, j):
        return (j - 1) * n + (i - 1)
    edges = []
    for j in range(1, n + 1):
        for j2 in range(j, n + 1):
            for i in range(1, n + 1):
                for i2 in range(1, n + 1):
                    if j == j2 and i2 <= i:
                        continue
                    if _zn_edge(i, j, i2, j2):
                        edges.append((idx(i, j), idx(i2, j2)))
    names = {idx(i, j): f"z({i},{j})"
             for j in range(1, n + 1) for i in range(1, n + 1)}
    labels = None
    if with_labels:
        labels = {
            "top": frozenset(idx(1, j) for j in range(1, n + 1)),
            "bottom": frozenset(idx(n, j) for j in range(1, n + 1)),
            "even": frozenset(idx(i, j) for j in range(2, n + 1, 2)
                              for i in range(1, n + 1)),
            "first": frozenset(idx(i, 1) for i in range(1, n + 1)),
            "last": frozenset(idx(i, n) for i in range(1, n + 1)),
        }
    return LabeledGraph.build(n * n, edges, labels=labels, names=names)


def bichain_predicates() -> PredicateLibrary:
    """The predicate library for the bichain graphs (loaded once)."""
    return _packaged_library("bichain")


def psi_bichain() -> Interpretation:
    """The grid interpretation: on a labeled Z_{n+2} it yields the
    n x n grid exactly."""
    return Interpretation(
        BICHAIN_LABELS,
        parse_formula("domain(x)"),
        parse_formula("hedge(x,y) | hedge(y,x) | vedge(x,y) | vedge(y,x)"),
        library=bichain_predicates(),
        name="psi-bichain")


def bichain_ground_truth(n: int) -> dict[str, set[tuple[int, ...]]]:
    """Library predicate tables computed from coordinates alone.

    Needs n >= 4: below that the domain has no adjacent column pairs,
    so the order-certifying witnesses the formulas rely on don't exist.
    """
    if n < 4:
        raise BichainError("ground truth needs n >= 4 for witness columns")
    def idx(i, j):
        return (j - 1) * n + (i - 1)
    V = [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)]

    def dom(c):
        i, j = c
        return 2 <= i <= n - 1 and 2 <= j <= n - 1

    samecolumn = {(idx(*c), idx(*d)) for c in V for d in V
                  if c[1] == d[1] and c[0] != n and d[0] != n}
    adjcolumn = {(idx(*c), idx(*d)) for c in V for d in V
                 if abs(c[1] - d[1]) == 1 and c[0] != n and d[0] != n}
    domain = {(idx(*c),) for c in V if dom(c)}
    rightcolumn = {(idx(*c), idx(*d)) for c in V for d in V
                   if dom(c) and dom(d) and d[1] == c[1] + 1}
    linorder = {(idx(*c), idx(*d)) for c in V for d in V
                if dom(c) and dom(d) and c[1] == d[1] and c[0] <= d[0]}
    hedge = {(idx(*c), idx(*d)) for c in V for d in V
             if dom(c) and dom(d) and d[1] == c[1] + 1 and c[0] == d[0]}
    vedge = {(idx(*c), idx(*d)) for c in V for d in V
             if dom(c) and dom(d) and c[1] == d[1] and d[0] == c[0] + 1}
    return {"samecolumn": samecolumn, "adjcolumn": adjcolumn,
            "domain": domain, "rightcolumn": rightcolumn,
            "linorder": linorder, "hedge": hedge, "vedge": vedge}


# ---------------------------------------------------------------------------
# Split graphs
# ---------------------------------------------------------------------------

def split_from_bichain(B: LabeledGraph, part_A: Iterable[int],
                       part_I: Optional[Iterable[int]] = None) -> LabeledGraph:
    """Complete part_A into a clique and mark it with label P.

    ``part_A`` and ``part_I`` must partition the vertices with every
    edge of B crossing between them; ``part_I`` defaults to the rest.
    """
    A = frozenset(part_A)
    I = frozenset(part_I) if part_I is not None else frozenset(range(B.n)) - A
    if A | I != frozenset(range(B.n)) or A & I:
        raise BichainError("declared parts do not partition the vertex set")
    for (u, v) in B.edges:
        if (u in A) == (v in A):
            raise BichainError(
                f"edge ({B.name_of(u)}, {B.name_of(v)}) does not cross the parts")
    edges = set(B.edges)
    for u in A:
        for v in A:
            if u < v:
                edges.add((u, v))
    labels = dict(B.labels)
    labels["P"] = A
    return LabeledGraph.build(B.n, sorted(edges), labels=labels,
                              names=dict(B.names))


def zn_parts(n: int) -> tuple[frozenset[int], frozenset[int]]:
    """The bipartition of Z_n: odd columns vs even columns."""
    def idx(i, j):
        return (j - 1) * n + (i - 1)
    odd = frozenset(idx(i, j) for j in range(1, n + 1, 2)
                    for i in range(1, n + 1))
    return odd, frozenset(range(n * n)) - odd


def psi_split() -> Interpretation:
    """Delete the edges inside the marked clique P."""
    return Interpretation(
        ("P",),
        parse_formula("x = x"),
        parse_formula("E(x,y) & !(P(x) & P(y))"),
        name="psi-split")


# ---------------------------------------------------------------------------
# Bipartite permutation graphs
# ---------------------------------------------------------------------------

def build_Pn(n: int) -> LabeledGraph:
    """The universal bipartite permutation graph P_n: vertices v_{i,j}
    on an n x n point grid, v_{i,j} adjacent to v_{i+1,j'} iff j' <= j.
    """
    if n < 1:
        raise BichainError(f"n must be >= 1, got {n}")
    def idx(i, j):
        return (i - 1) * n + (j - 1)
    edges = []
    for i in range(1, n):
        for j in range(1, n + 1):
            for j2 in range(1, j + 1):
                edges.append((idx(i, j), idx(i + 1, j2)))
    names = {idx(i, j): f"v({i},{j})"
             for i in range(1, n + 1) for j in range(1, n + 1)}
    return LabeledGraph.build(n * n, edges, names=names)
