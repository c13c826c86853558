"""Backtracking search for induced-subgraph containment and isomorphism.

A graph, or bare adjacency rows, is read once into a private ``_Graph``
record: its adjacency as bitmasks, a key per vertex (its degree, and
with ``respect_labels`` also the names of the labels it lies in), the
isomorphism invariant (vertex count, edge count, sorted keys, and with
``respect_labels`` the label names) and, on first use, the order in
which the search places its vertices as a pattern: connected to the
placed prefix, then descending degree, then index, so failing runs are
reproducible.  One forward-checking core, ``_search``, maps a pattern
record into a host record.  Its callers differ only in the candidate
domains they pass: ``is_induced_subgraph_of`` and ``is_antichain`` let
v go to any vertex of degree at least deg(v); ``is_isomorphic`` to
vertices of equal key.  ``isomorphism_classes`` keeps the record of each
class it has yielded, bucketed by invariant, and searches each kept
record that shares a new graph's invariant, as the pattern, into the
new graph; isomorphism is symmetric, so a duplicate never sorts its
vertices.  Its core, ``_first_of_classes``, takes bare rows with an item
each, so the census of ``interpret`` builds only the graphs it keeps.
The search core stops at the first map or, given a visit callback,
passes it every map: ``_automorphisms`` lists the label-keeping
automorphisms of a graph that way, under a fixed expansion budget, and
falls back to the identity alone when the budget runs out (a subset of
the group is all its callers need).  An optional budget of node
expansions per call turns a long search into an explicit
``BudgetExhausted`` outcome, never a negative answer.
"""

from __future__ import annotations

from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence, TypeVar)

from .graphs import LabeledGraph

T = TypeVar("T")


class BudgetExhausted(Exception):
    """Search exceeded its node-expansion budget before deciding."""

    def __init__(self, expanded: int):
        super().__init__(f"search budget exhausted after {expanded} expansions")
        self.expanded = expanded


def _pattern_order(adj: Sequence[int]) -> list[int]:
    """Descending degree, ties by index, but preferring connectivity to
    already-placed vertices so pruning bites early."""
    neg_deg = [-a.bit_count() for a in adj]
    # a stable sort keeps vertices of equal degree in index order
    by_rank = sorted(range(len(adj)), key=neg_deg.__getitem__)
    order: list[int] = []
    remaining = (1 << len(adj)) - 1
    reach = 0  # the neighbours of the placed prefix
    while remaining:
        frontier = remaining & reach or remaining
        for v in by_rank:
            if (frontier >> v) & 1:
                break
        order.append(v)
        remaining ^= 1 << v
        reach |= adj[v]
    return order


class _Graph:
    """What the searches need of one graph, computed once: its pattern
    order on first use, since a record searched only as the target never
    needs it."""

    __slots__ = ("n", "adj", "key", "invariant", "_order")

    def __init__(self, adj: Sequence[int],
                 labels: Optional[Mapping[str, frozenset[int]]] = None):
        """The record of the graph of adjacency rows adj; given its label
        sets, a vertex's key holds the names of the labels it lies in."""
        self.n = len(adj)
        self.adj = adj
        key: list = [a.bit_count() for a in adj]
        edges = sum(key) // 2
        if labels is not None:
            names: list[list[str]] = [[] for _ in adj]
            for name in sorted(labels):
                for v in labels[name]:
                    names[v].append(name)
            key = [(d, tuple(ns)) for d, ns in zip(key, names)]
        self.key = key
        self.invariant = (self.n, edges, tuple(sorted(key)))
        if labels is not None:  # an empty label set still has to match
            self.invariant += (tuple(sorted(labels)),)
        self._order: Optional[list[int]] = None

    @property
    def order(self) -> list[int]:
        if self._order is None:
            self._order = _pattern_order(self.adj)
        return self._order


def _record(G: LabeledGraph, respect_labels: bool = False) -> _Graph:
    """The record of G, its keys with label names if respect_labels."""
    return _Graph(G._adjacency_rows(), G.labels if respect_labels else None)


def _search(P: _Graph, T: _Graph, domains: list[int],
            budget: Optional[int],
            visit: Optional[Callable[[dict[int, int]], None]] = None
            ) -> Optional[dict[int, int]]:
    """An injective map V(P) -> V(T) preserving edges and non-edges that
    sends each v into the bitmask ``domains[v]``, or None.  Given visit,
    every such map is passed to it instead and None is returned.  Raises
    ``BudgetExhausted`` after ``budget`` node expansions."""
    if not all(domains):  # fail before searching the vertices ahead of it
        return None
    hadj, gadj, order = P.adj, T.adj, P.order
    gall = (1 << T.n) - 1
    expanded = 0
    mapping: dict[int, int] = {}

    def backtrack(pos: int, used: int, doms: list[int]) -> bool:
        nonlocal expanded
        if pos == len(order):
            if visit is None:
                return True
            visit({v: mapping[v] for v in range(P.n)})
            return False
        v = order[pos]
        cand = doms[pos] & ~used
        while cand:
            w_bit = cand & -cand
            cand ^= w_bit
            w = w_bit.bit_length() - 1
            expanded += 1
            if budget is not None and expanded > budget:
                raise BudgetExhausted(expanded)
            mapping[v] = w
            # forward restriction: future pattern neighbours of v must map
            # into N(w); future non-neighbours must avoid N(w) and w.  So
            # every candidate drawn from a domain agrees with all placed
            # vertices, and none needs checking against them.
            non_nbrs = gall & ~gadj[w] & ~w_bit
            new_doms = list(doms)
            for later_pos in range(pos + 1, len(order)):
                new_doms[later_pos] &= (gadj[w] if (hadj[v] >> order[later_pos]) & 1
                                        else non_nbrs)
                if new_doms[later_pos] & ~used == 0:
                    break
            else:
                if backtrack(pos + 1, used | w_bit, new_doms):
                    return True
            del mapping[v]
        return False

    if backtrack(0, 0, [domains[v] for v in order]):
        return {v: mapping[v] for v in range(P.n)}
    return None


def _embedding(P: _Graph, T: _Graph,
               budget: Optional[int]) -> Optional[dict[int, int]]:
    """Induced embedding of unlabeled records; the key is the degree."""
    if P.n > T.n:
        return None
    # degree monotonicity: v can only go where there is room for N(v)
    return _search(P, T, [sum(1 << w for w, e in enumerate(T.key) if e >= d)
                          for d in P.key], budget)


def _isomorphism(A: _Graph, B: _Graph, budget: Optional[int],
                 visit=None) -> Optional[dict[int, int]]:
    """Isomorphism of records built alike: a vertex maps only to one of
    equal key."""
    if A.invariant != B.invariant:
        return None
    classes: dict = {}
    for w, key in enumerate(B.key):
        classes[key] = classes.get(key, 0) | 1 << w
    # equal invariants hold equal key multisets, so no domain is empty
    return _search(A, B, [classes[key] for key in A.key], budget, visit)


# node expansions allowed to list a group; an edgeless 10-vertex graph
# (10! automorphisms) needs about 10 million
_AUTOMORPHISM_BUDGET = 10_000


def _automorphisms(G: LabeledGraph) -> list[list[int]]:
    """The automorphisms of G that keep every label set, each as its
    list of vertex images, in search order; only the identity if listing
    them takes more than ``_AUTOMORPHISM_BUDGET`` expansions."""
    g = _record(G, respect_labels=True)
    found: list[list[int]] = []
    try:
        _isomorphism(g, g, _AUTOMORPHISM_BUDGET,
                     lambda m: found.append([m[v] for v in range(G.n)]))
    except BudgetExhausted:
        return [list(range(G.n))]
    return found


def is_induced_subgraph_of(H: LabeledGraph, G: LabeledGraph,
                           budget: Optional[int] = None) -> Optional[dict[int, int]]:
    """An injective map V(H) -> V(G) preserving edges and non-edges, or None.

    Labels are ignored (plain-graph containment).  Raises
    ``BudgetExhausted`` if ``budget`` node expansions are exceeded.
    """
    return _embedding(_record(H), _record(G), budget)


def is_isomorphic(G: LabeledGraph, H: LabeledGraph,
                  respect_labels: bool = False,
                  budget: Optional[int] = None) -> Optional[dict[int, int]]:
    """An edge-preserving bijection V(G) -> V(H), or None.

    With ``respect_labels`` the bijection must map every label set of G
    onto the equally named label set of H.  Raises ``BudgetExhausted``
    if ``budget`` node expansions are exceeded.
    """
    return _isomorphism(_record(G, respect_labels),
                        _record(H, respect_labels), budget)


def isomorphism_classes(graphs: Iterable[LabeledGraph]
                        ) -> Iterator[LabeledGraph]:
    """The first graph of each isomorphism class (labels ignored), in
    input order."""
    return _first_of_classes((G._adjacency_rows(), G) for G in graphs)


def _first_of_classes(items: Iterable[tuple[Sequence[int], T]]
                      ) -> Iterator[T]:
    """Of (adjacency rows, item) pairs, the item of the first rows of
    each isomorphism class, in input order.

    The rows are searched only against the kept records with their
    invariant, each kept record as the pattern, and a match is always
    confirmed by the search.
    """
    kept: dict[tuple, list[_Graph]] = {}
    for adj, item in items:
        g = _Graph(adj)
        bucket = kept.setdefault(g.invariant, [])
        if any(_isomorphism(K, g, None) is not None for K in bucket):
            continue
        bucket.append(g)
        yield item


def is_antichain(graphs: list[LabeledGraph],
                 budget: Optional[int] = None
                 ) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff no listed graph embeds induced into another.

    On failure returns the violating (pattern_index, host_index) pair.
    """
    records = [_record(G) for G in graphs]
    for i, Gi in enumerate(records):
        for j, Gj in enumerate(records):
            if i != j and _embedding(Gi, Gj, budget) is not None:
                return False, (i, j)
    return True, None
