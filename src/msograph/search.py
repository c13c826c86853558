"""Forward-checking search for induced-subgraph containment and
isomorphism, as one loop with no recursion.

A graph, or bare adjacency rows, is read once into a private ``_Graph``
record: its adjacency as bitmasks, a key per vertex (its degree, and
with ``respect_labels`` also the names of the labels it lies in), the
isomorphism invariant (vertex count, edge count, sorted keys, and with
``respect_labels`` the label names) and, on first use as a pattern, the
order in which the search places its vertices (connected to the placed
prefix, then descending degree, then index, so failing runs are
reproducible) and, for each position of that order, the mask of the
later positions that are its neighbours: n ints per record.  One core,
``_search``, maps a pattern record into a host record.  It walks the
positions in a single loop, keeping each level's domains, its candidates
left and the bit it placed in arrays, so its stack depth does not grow
with the pattern: ``is_isomorphic`` answers on two copies of grid(40,40).
Placing a vertex narrows the domains of the later positions at once
(forward checking), candidates are tried lowest bit first, and every
candidate tried counts one expansion.  Its callers differ only in the
candidate domains they pass: ``is_induced_subgraph_of`` and
``is_antichain`` let v go to any vertex of degree at least deg(v);
``is_isomorphic`` to vertices of equal key.  ``isomorphism_classes``
keeps the record of each class it has yielded, bucketed by invariant,
and its rows; a new graph with the rows of a kept one is skipped
unsearched, and otherwise each kept record that shares its invariant is
searched, as the pattern, into it; isomorphism is symmetric, so a
duplicate never sorts its vertices.  Its core, ``_first_of_classes``,
takes bare rows with an item each, so the census of ``interpret``
builds only the graphs it keeps.  The search core stops at the first
map or, given a visit callback, passes it every map: ``_automorphisms``
lists the automorphisms of a graph that way, the label-keeping ones by
default, under a fixed expansion budget, and falls back to the identity
alone when the budget runs out (the trivial group serves its callers as
well, only slower).  ``_mask_map`` maps vertex sets, as masks, through
them by lookup in byte tables, for the census of ``interpret`` and the
clique-width search of ``widths``.  An optional budget of node
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
    order and the later neighbours of each position in it on first use,
    since a record searched only as the target never needs them."""

    __slots__ = ("n", "adj", "key", "invariant", "_order", "_later")

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
        self._later: Optional[list[int]] = None

    @property
    def order(self) -> list[int]:
        if self._order is None:
            self._order = _pattern_order(self.adj)
        return self._order

    @property
    def later(self) -> list[int]:
        """For each position of the pattern order, the mask of the later
        positions whose vertices are its neighbours."""
        if self._later is None:
            order, adj = self.order, self.adj
            later = []
            for i, v in enumerate(order):
                row, mask = adj[v], 0
                for j in range(i + 1, len(order)):
                    if (row >> order[j]) & 1:
                        mask |= 1 << j
                later.append(mask)
            self._later = later
        return self._later


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
    ``BudgetExhausted`` after ``budget`` node expansions.

    One loop walks the positions of P's pattern order, with the state of
    each level in arrays: its domains, its candidates left and the bit
    of the vertex placed there.  Candidates are tried lowest bit first."""
    if not all(domains):  # fail before searching the vertices ahead of it
        return None
    n = P.n
    order = P.order
    if n == 0:
        if visit is None:
            return {}
        visit({})
        return None
    later, gadj = P.later, T.adj
    gall = (1 << T.n) - 1
    doms: list = [None] * n
    doms[0] = [domains[v] for v in order]
    cands = [0] * n
    placed = [0] * n
    last = n - 1
    expanded = 0
    pos = 0
    used = 0
    cands[0] = doms[0][0]
    while True:
        cand = cands[pos]
        if not cand:  # every candidate tried: back to the level above
            if pos == 0:
                return None
            pos -= 1
            used ^= placed[pos]
            continue
        w_bit = cand & -cand
        cands[pos] = cand ^ w_bit
        expanded += 1
        if budget is not None and expanded > budget:
            raise BudgetExhausted(expanded)
        if pos == last:
            placed[pos] = w_bit
            images = [0] * n
            for v, b in zip(order, placed):
                images[v] = b.bit_length() - 1
            if visit is None:
                return dict(enumerate(images))
            visit(dict(enumerate(images)))
            continue
        # forward restriction: later pattern neighbours of the vertex at
        # pos must map into N(w); later non-neighbours must avoid N(w)
        # and w.  So every candidate drawn from a domain agrees with all
        # placed vertices, and none needs checking against them.
        nbrs = gadj[w_bit.bit_length() - 1]
        non_nbrs = gall & ~nbrs & ~w_bit
        nbr_pos = later[pos]
        new = doms[pos][:]
        free = ~used
        for q in range(pos + 1, n):
            d = new[q] & (nbrs if (nbr_pos >> q) & 1 else non_nbrs)
            if not d & free:
                break
            new[q] = d
        else:
            doms[pos + 1] = new
            placed[pos] = w_bit
            used |= w_bit
            pos += 1
            cands[pos] = new[pos] & ~used


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


def _automorphisms(G: LabeledGraph,
                   respect_labels: bool = True) -> list[list[int]]:
    """The automorphisms of G, each as its list of vertex images, in
    search order; only the identity if listing them takes more than
    ``_AUTOMORPHISM_BUDGET`` expansions.  With ``respect_labels`` only
    those that keep every label set."""
    g = _record(G, respect_labels)
    found: list[list[int]] = []
    try:
        _isomorphism(g, g, _AUTOMORPHISM_BUDGET,
                     lambda m: found.append([m[v] for v in range(G.n)]))
    except BudgetExhausted:
        return [list(range(G.n))]
    return found


def _byte_images(perm: list[int]) -> list[list[int]]:
    """The image of a mask under the vertex map perm, by lookup: table k
    sends byte b to the image of the mask b << 8k."""
    tabs = []
    for lo in range(0, len(perm), 8):
        t = [0]
        for v in perm[lo:lo + 8]:  # the bytes with this vertex's bit follow
            bit = 1 << v
            t += [image | bit for image in t]
        tabs.append(t)
    return tabs


def _mask_map(perm: list[int]) -> Callable[[int], int]:
    """The map of masks induced by the vertex map perm, by lookup in its
    byte tables: one table itself up to 8 vertices."""
    tabs = _byte_images(perm)
    if len(tabs) == 1:
        return tabs[0].__getitem__

    def image(mask: int) -> int:
        out = 0
        for k, t in enumerate(tabs):
            out |= t[mask >> 8 * k & 255]
        return out

    return image


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


def _first_of_classes(items: Iterable[tuple[tuple[int, ...], T]]
                      ) -> Iterator[T]:
    """Of (adjacency rows, item) pairs, the item of the first rows of
    each isomorphism class, in input order.

    Rows equal to those of a kept graph are skipped unsearched, since
    the identity maps them.  Other rows are searched only against the
    kept records with their invariant, each kept record as the pattern,
    and a match is always confirmed by the search.
    """
    kept: dict[tuple, list[_Graph]] = {}
    rows: set[tuple[int, ...]] = set()  # of the kept graphs
    for adj, item in items:
        if adj in rows:
            continue
        g = _Graph(adj)
        bucket = kept.setdefault(g.invariant, [])
        if any(_isomorphism(K, g, None) is not None for K in bucket):
            continue
        bucket.append(g)
        rows.add(adj)
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
