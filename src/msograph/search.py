"""Backtracking search for induced-subgraph containment and isomorphism.

One forward-checking core, ``_search``, maps a pattern into a host over
bitset adjacency, in a deterministic vertex order (connected to the
placed prefix, then descending degree, then index) so failing runs are
reproducible.  Its callers differ only in the candidate domains they
pass: ``is_induced_subgraph_of`` lets v go to any vertex of degree at
least deg(v); ``is_isomorphic`` to vertices of equal degree and, with
``respect_labels``, of the same label signature.  An optional budget of
node expansions per call turns a long search into an explicit
``BudgetExhausted`` outcome, never a negative answer.
"""

from __future__ import annotations

from typing import Optional

from .graphs import LabeledGraph


class BudgetExhausted(Exception):
    """Search exceeded its node-expansion budget before deciding."""

    def __init__(self, expanded: int):
        super().__init__(f"search budget exhausted after {expanded} expansions")
        self.expanded = expanded


def _pattern_order(H: LabeledGraph) -> list[int]:
    """Descending degree, ties by index, but preferring connectivity to
    already-placed vertices so pruning bites early."""
    deg = H.degree_sequence()
    adj = H.adjacency()
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(H.n))
    while remaining:
        # candidates adjacent to the placed prefix, if any
        frontier = {v for v in remaining if adj[v] & placed} or remaining
        v = max(frontier, key=lambda v: (deg[v], -v))
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    return order


def _search(H: LabeledGraph, G: LabeledGraph, domains: list[int],
            budget: Optional[int]) -> Optional[dict[int, int]]:
    """An injective map V(H) -> V(G) preserving edges and non-edges that
    sends each v into the bitmask ``domains[v]``, or None.  Raises
    ``BudgetExhausted`` after ``budget`` node expansions."""
    if not all(domains):  # fail before searching the vertices ahead of it
        return None
    hadj = H.adjacency_masks()
    gadj = G.adjacency_masks()
    order = _pattern_order(H)
    gall = (1 << G.n) - 1
    expanded = 0
    mapping: dict[int, int] = {}

    def backtrack(pos: int, used: int, doms: list[int]) -> bool:
        nonlocal expanded
        if pos == len(order):
            return True
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
        return {v: mapping[v] for v in range(H.n)}
    return None


def is_induced_subgraph_of(H: LabeledGraph, G: LabeledGraph,
                           budget: Optional[int] = None) -> Optional[dict[int, int]]:
    """An injective map V(H) -> V(G) preserving edges and non-edges, or None.

    Labels are ignored (plain-graph containment).  Raises
    ``BudgetExhausted`` if ``budget`` node expansions are exceeded.
    """
    if H.n > G.n:
        return None
    gdeg = G.degree_sequence()
    # degree monotonicity: v can only go where there is room for N(v)
    domains = [sum(1 << w for w in range(G.n) if gdeg[w] >= d)
               for d in H.degree_sequence()]
    return _search(H, G, domains, budget)


def is_isomorphic(G: LabeledGraph, H: LabeledGraph,
                  respect_labels: bool = False,
                  budget: Optional[int] = None) -> Optional[dict[int, int]]:
    """An edge-preserving bijection V(G) -> V(H), or None.

    With ``respect_labels`` the bijection must map every label set of G
    onto the equally named label set of H.  Raises ``BudgetExhausted``
    if ``budget`` node expansions are exceeded.
    """
    if G.n != H.n or len(G.edges) != len(H.edges):
        return None
    # a vertex maps only to one of equal key: its degree, and with
    # respect_labels also the set of label names it lies in
    gkey, hkey = G.degree_sequence(), H.degree_sequence()
    if sorted(gkey) != sorted(hkey):
        return None
    if respect_labels:
        if (set(G.labels) != set(H.labels)
                or any(len(G.labels[k]) != len(H.labels[k]) for k in G.labels)):
            return None
        gkey, hkey = ([(d, frozenset(k for k, vs in X.labels.items() if v in vs))
                       for v, d in enumerate(deg)]
                      for X, deg in ((G, gkey), (H, hkey)))
    classes: dict = {}
    for w, key in enumerate(hkey):
        classes[key] = classes.get(key, 0) | 1 << w
    return _search(G, H, [classes.get(key, 0) for key in gkey], budget)


def is_antichain(graphs: list[LabeledGraph],
                 budget: Optional[int] = None
                 ) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff no listed graph embeds induced into another.

    On failure returns the violating (pattern_index, host_index) pair.
    """
    for i, Gi in enumerate(graphs):
        for j, Gj in enumerate(graphs):
            if i == j:
                continue
            if is_induced_subgraph_of(Gi, Gj, budget=budget) is not None:
                return False, (i, j)
    return True, None
