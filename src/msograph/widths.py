"""Exact treewidth and clique-width oracles with verifiable certificates.

Both oracles are exhaustive and intended for small graphs: treewidth by
dynamic programming over elimination orderings (cap 12 vertices),
clique-width by breadth-first search over canonical labeled partial
constructions (cap 8, or 10 with an extended budget).  Each returns a
certificate — a tree decomposition or a k-expression — that the
companion verifier checks independently.

A constructive decomposition extension is included: subdividing every
edge into a path of length t raises treewidth to at most max(k, 3),
realized by hanging bags {u, v, p_i, p_{i+1}} along each subdividing
path off a bag containing both original endpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .graphs import GraphError, LabeledGraph, subdivide
from .search import BudgetExhausted, is_isomorphic


class WidthError(ValueError):
    pass


class SizeCapExceeded(WidthError):
    """The input exceeds the oracle's vertex cap (distinct from a budget)."""


def _load_certificate(text: str, kind: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("type") != kind:
        raise WidthError(f"not a {kind} certificate")
    return data


# ---------------------------------------------------------------------------
# Tree decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..len(bags)-1 joined into a tree by tree_edges."""

    bags: tuple[frozenset[int], ...]
    tree_edges: frozenset[tuple[int, int]]

    @staticmethod
    def build(bags: Iterable[Iterable[int]],
              tree_edges: Iterable[tuple[int, int]]) -> "TreeDecomposition":
        bs = tuple(frozenset(b) for b in bags)
        te = frozenset((min(a, b), max(a, b)) for (a, b) in tree_edges)
        for (a, b) in te:
            if not (0 <= a < b < len(bs)):
                raise WidthError(f"tree edge ({a},{b}) out of node range")
        return TreeDecomposition(bs, te)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def to_json(self) -> str:
        return json.dumps({
            "type": "tree-decomposition",
            "bags": [sorted(b) for b in self.bags],
            "tree_edges": sorted(self.tree_edges),
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "TreeDecomposition":
        data = _load_certificate(text, "tree-decomposition")
        bags, tree_edges = data.get("bags"), data.get("tree_edges")
        if not isinstance(bags, list) or not all(
                isinstance(b, list) and all(type(v) is int for v in b)
                for b in bags):
            raise WidthError('tree-decomposition needs "bags", a list of '
                             'vertex lists')
        if not isinstance(tree_edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and
                all(type(a) is int for a in e) for e in tree_edges):
            raise WidthError('tree-decomposition needs "tree_edges", a list '
                             'of node pairs')
        return TreeDecomposition.build(bags, [tuple(e) for e in tree_edges])


def decomposition_violation(G: LabeledGraph,
                            td: TreeDecomposition) -> Optional[str]:
    """The first violated decomposition axiom, or None when valid."""
    m = len(td.bags)
    if m == 0:
        return "decomposition has no bags" if G.n else None
    # the tree must actually be a tree
    if len(td.tree_edges) != m - 1:
        return f"{len(td.tree_edges)} tree edges for {m} nodes; not a tree"
    adj: list[set[int]] = [set() for _ in range(m)]
    for (a, b) in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != m:
        return "tree edges do not connect all bag nodes"
    # vertex coverage
    covered: set[int] = set()
    for b in td.bags:
        covered |= b
    for v in range(G.n):
        if v not in covered:
            return f"vertex {v} is in no bag"
    # edge coverage
    for (u, v) in sorted(G.edges):
        if not any(u in b and v in b for b in td.bags):
            return f"edge ({u},{v}) is covered by no bag"
    # connectivity: the bags containing each vertex form a subtree
    for v in range(G.n):
        nodes = [i for i, b in enumerate(td.bags) if v in b]
        comp = {nodes[0]}
        stack = [nodes[0]]
        node_set = set(nodes)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in node_set and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != node_set:
            return f"bags containing vertex {v} are disconnected in the tree"
    return None


def verify_tree_decomposition(G: LabeledGraph, td: TreeDecomposition) -> bool:
    return decomposition_violation(G, td) is None


def _reach(adj: list[int], v: int, through: int) -> int:
    """Bitmask of vertices outside ``through`` reachable from v by paths
    whose interior lies inside ``through`` (v excluded from the result)."""
    seen = (1 << v)
    frontier = adj[v]
    out = 0
    while frontier:
        w = (frontier & -frontier).bit_length() - 1
        bit = 1 << w
        frontier &= ~bit
        if seen & bit:
            continue
        seen |= bit
        if through & bit:
            frontier |= adj[w] & ~seen
        else:
            out |= bit
    return out


def treewidth_exact(G: LabeledGraph, cap: int = 12
                    ) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witnessing decomposition.

    Dynamic programming over elimination prefixes: eliminating a vertex
    costs the size of its neighborhood in the graph with the prefix
    contracted away, and the treewidth is the min-max cost over orders.
    """
    if G.n > cap:
        raise SizeCapExceeded(f"treewidth cap is {cap} vertices, got {G.n}")
    n = G.n
    if n == 0:
        return -1, TreeDecomposition((), frozenset())
    adj = G.adjacency_masks()
    full = (1 << n) - 1
    INF = n + 1
    tw = [INF] * (full + 1)
    tw[0] = -1
    pick = [0] * (full + 1)
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(full + 1):
        masks_by_size[mask.bit_count()].append(mask)
    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            best = INF
            best_v = -1
            rest_all = mask
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                rest = rest_all & ~(1 << v)
                cost = max(tw[rest], _reach(adj, v, rest).bit_count())
                if cost < best:
                    best, best_v = cost, v
            tw[mask] = best
            pick[mask] = best_v
    width = tw[full]
    # recover the elimination order (pick[mask] is eliminated last in mask)
    order: list[int] = []
    mask = full
    while mask:
        v = pick[mask]
        order.append(v)
        mask &= ~(1 << v)
    order.reverse()
    # bags from the order: bag_i = {v_i} + reach over the earlier prefix
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    reaches = []
    for i, v in enumerate(order):
        prefix = 0
        for w in order[:i]:
            prefix |= 1 << w
        r = _reach(adj, v, prefix)
        reaches.append(r)
        bags.append(frozenset({v} | {w for w in range(n) if (r >> w) & 1}))
    tree_edges = []
    for i, v in enumerate(order):
        r = reaches[i]
        if r:
            j = min(pos[w] for w in range(n) if (r >> w) & 1)
            tree_edges.append((i, j))
        elif i + 1 < n:
            tree_edges.append((i, i + 1))
    td = TreeDecomposition.build(bags, tree_edges)
    bad = decomposition_violation(G, td)
    if bad is not None:
        raise WidthError(f"internal: witness decomposition invalid: {bad}")
    return width, td


def extend_decomposition_for_subdivision(G: LabeledGraph,
                                         td: TreeDecomposition,
                                         t: int) -> TreeDecomposition:
    """A decomposition of the t-subdivision of G, width <= max(width, 3).

    For each original edge {u, v}, the subdividing path p_1..p_{t-1}
    gets a chain of 4-element bags {u, v, p_i, p_{i+1}} hung off a bag
    of td containing both u and v.
    """
    bad = decomposition_violation(G, td)
    if bad is not None:
        raise WidthError(f"input decomposition invalid: {bad}")
    if t < 1:
        raise WidthError("subdivision parameter must be >= 1")
    if t == 1:
        return td
    bags = [set(b) for b in td.bags]
    tree_edges = list(td.tree_edges)
    # mirror the vertex numbering of subdivide(): new vertices appear in
    # sorted edge order, t-1 per edge, starting at G.n
    nxt = G.n
    for (u, v) in sorted(G.edges):
        anchor = next(i for i, b in enumerate(td.bags) if u in b and v in b)
        path = [u] + list(range(nxt, nxt + t - 1)) + [v]
        nxt += t - 1
        prev_node = anchor
        for a, b in zip(path, path[1:]):
            bags.append({u, v, a, b})
            tree_edges.append((prev_node, len(bags) - 1))
            prev_node = len(bags) - 1
    out = TreeDecomposition.build(bags, tree_edges)
    bad = decomposition_violation(subdivide(G, t), out)
    if bad is not None:
        raise WidthError(f"internal: extended decomposition invalid: {bad}")
    return out


# ---------------------------------------------------------------------------
# k-expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KExpression:
    """An expression over: ("leaf", label), ("union", a, b),
    ("join", i, j, sub) adding all edges between labels i and j, and
    ("relabel", i, j, sub) turning label i into label j.  Labels run
    over 1..k."""

    k: int
    root: tuple

    def evaluate(self) -> tuple[LabeledGraph, list[int]]:
        """The graph the expression builds plus the final vertex labels.

        Vertices are numbered by leaf order, left to right.
        """
        counter = [0]

        def go(node) -> tuple[list[int], set[tuple[int, int]], dict[int, int]]:
            if not (isinstance(node, tuple) and node):
                raise WidthError(f"malformed expression node: {node!r}")
            op = node[0]
            if op == "leaf":
                _, lbl = node
                self._check_label(lbl)
                v = counter[0]
                counter[0] += 1
                return [v], set(), {v: lbl}
            if op == "union":
                _, a, b = node
                va, ea, la = go(a)
                vb, eb, lb = go(b)
                return va + vb, ea | eb, {**la, **lb}
            if op == "join":
                _, i, j, sub = node
                self._check_label(i)
                self._check_label(j)
                if i == j:
                    raise WidthError("join requires two distinct labels")
                vs, es, ls = go(sub)
                for u in vs:
                    for w in vs:
                        if u < w and {ls[u], ls[w]} == {i, j}:
                            es.add((u, w))
                return vs, es, ls
            if op == "relabel":
                _, i, j, sub = node
                self._check_label(i)
                self._check_label(j)
                vs, es, ls = go(sub)
                ls = {v: (j if l == i else l) for v, l in ls.items()}
                return vs, es, ls
            raise WidthError(f"unknown expression op {op!r}")

        vs, es, ls = go(self.root)
        return LabeledGraph.build(len(vs), es), [ls[v] for v in vs]

    def _check_label(self, lbl) -> None:
        if not (isinstance(lbl, int) and 1 <= lbl <= self.k):
            raise WidthError(f"label {lbl!r} outside 1..{self.k}")

    def to_json(self) -> str:
        def enc(node):
            return [node[0]] + [enc(x) if isinstance(x, tuple) else x
                                for x in node[1:]]
        return json.dumps({"type": "k-expression", "k": self.k,
                           "root": enc(self.root)}, indent=2)

    @staticmethod
    def from_json(text: str) -> "KExpression":
        data = _load_certificate(text, "k-expression")
        k, root = data.get("k"), data.get("root")
        if type(k) is not int or not isinstance(root, list):
            raise WidthError('k-expression needs "k", an integer, and '
                             '"root", a list')

        def dec(node):
            return tuple(dec(x) if isinstance(x, list) else x for x in node)

        return KExpression(k, dec(root))


def verify_k_expression(G: LabeledGraph, e: KExpression) -> bool:
    """Evaluate e and test isomorphism with G (labels ignored)."""
    built, _ = e.evaluate()
    return is_isomorphic(built, G, respect_labels=False) is not None


# ---------------------------------------------------------------------------
# Exact clique-width
# ---------------------------------------------------------------------------
#
# Search state: a vertex subset S together with the partition of S into
# label classes, with all edges of G[S] already built.  Two facts keep
# the search exact:
#   * any needed join can be performed greedily the moment both classes
#    exist, because classes only grow — a join illegal now (some cross
#    pair is a non-edge) stays illegal forever;
#   * vertices sharing a class must have identical neighborhoods outside
#    S, because all future edges reach them classwise.
# States are canonical up to label renaming (a partition, not a
# labeling), which is the orbit quotient that keeps 8-10 vertices
# tractable; correctness does not depend on it, only the state count.

def _partition_groupings(blocks: list[int], k: int):
    """All ways to merge the given blocks into at most k groups."""
    groups: list[int] = []

    def rec(i: int):
        if i == len(blocks):
            yield tuple(groups)
            return
        for g in range(len(groups)):
            groups[g] |= blocks[i]
            yield from rec(i + 1)
            groups[g] &= ~blocks[i]
        if len(groups) < k:
            groups.append(blocks[i])
            yield from rec(i + 1)
            groups.pop()

    yield from rec(0)


def _cross_edge(G_adj: list[int], a: int, b: int) -> bool:
    """Whether some edge joins the vertex sets a and b."""
    m = a
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if G_adj[v] & b:
            return True
    return False


def _grouping_feasible(G_adj: list[int], groups: tuple[int, ...],
                       s1: int, s2: int, outside: int) -> bool:
    """Whether merging into ``groups`` after uniting s1 and s2 leaves a
    live state: every crossing edge is addable by a complete join, no
    crossing edge is trapped inside one group, and group-mates agree
    outside the union."""
    for g in groups:
        a1, a2 = g & s1, g & s2
        if a1 and a2 and _cross_edge(G_adj, a1, a2):
            return False          # edge trapped inside one class
        if g.bit_count() > 1:
            sig = None
            m = g
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nb = G_adj[v] & outside
                if sig is None:
                    sig = nb
                elif nb != sig:
                    return False  # class-mates disagree outside
    for ga, gb in combinations(groups, 2):
        needed = (_cross_edge(G_adj, ga & s1, gb & s2) or
                  _cross_edge(G_adj, ga & s2, gb & s1))
        if needed:
            m = ga
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if G_adj[v] & gb != gb:
                    return False  # join needed but not complete
    return True


def _join_pairs(G_adj: list[int], groups: tuple[int, ...],
                s1: int, s2: int) -> list[tuple[int, int]]:
    """Indices of group pairs whose join the union step must apply."""
    out = []
    for ia in range(len(groups)):
        for ib in range(ia + 1, len(groups)):
            ga, gb = groups[ia], groups[ib]
            if (_cross_edge(G_adj, ga & s1, gb & s2) or
                    _cross_edge(G_adj, ga & s2, gb & s1)):
                out.append((ia, ib))
    return out


def cliquewidth_exact(G: LabeledGraph, cap: int = 8,
                      budget: int = 2_000_000
                      ) -> tuple[int, KExpression]:
    """Least k admitting a k-expression, with a witnessing expression.

    Exhaustive per k: returning k certifies that no (k-1)-expression
    exists.  ``budget`` bounds the number of candidate union groupings
    examined; exceeding it raises BudgetExhausted rather than guessing.
    Raise the cap to 10 together with a larger budget for 9-10 vertices.
    """
    if G.n > cap:
        raise SizeCapExceeded(f"clique-width cap is {cap} vertices, got {G.n}")
    if G.n == 0:
        raise WidthError("clique-width of the empty graph is undefined here")
    n = G.n
    adj = G.adjacency_masks()
    full = (1 << n) - 1
    spent = [0]

    for k in range(1, n + 1):
        # state: (mask, tuple-sorted block masks) -> provenance
        prov: dict[tuple[int, tuple[int, ...]], tuple] = {}
        frontier_by_size: list[list[tuple[int, tuple[int, ...]]]] = \
            [[] for _ in range(n + 1)]
        goal = None
        for v in range(n):
            st = (1 << v, (1 << v,))
            prov[st] = ("leaf", v)
            frontier_by_size[1].append(st)
            if st[0] == full:
                goal = st
        for size in range(2, n + 1):
            for s1 in range(1, size // 2 + 1):
                s2 = size - s1
                for stA in frontier_by_size[s1]:
                    for stB in frontier_by_size[s2]:
                        mA, blocksA = stA
                        mB, blocksB = stB
                        if mA & mB or (s1 == s2 and mA > mB):
                            continue
                        mask = mA | mB
                        outside = full & ~mask
                        for Q in _partition_groupings(
                                list(blocksA) + list(blocksB), k):
                            spent[0] += 1
                            if spent[0] > budget:
                                raise BudgetExhausted(
                                    f"clique-width search budget {budget} "
                                    f"exhausted at k={k}")
                            if not _grouping_feasible(adj, Q, mA, mB, outside):
                                continue
                            st = (mask, tuple(sorted(Q)))
                            if st in prov:
                                continue
                            prov[st] = ("union", stA, stB, Q)
                            frontier_by_size[size].append(st)
                            if mask == full and goal is None:
                                goal = st
            if goal is not None:
                break
        if goal is not None:
            expr = _rebuild_expression(adj, prov, goal, k)
            return k, KExpression(k, expr)
    raise WidthError("internal: no expression found at k = n")


def _rebuild_expression(G_adj: list[int], prov: dict, goal, k: int) -> tuple:
    """Top-down reconstruction: each state is told which label every one
    of its blocks must carry, so relabels are only ever needed to merge
    sibling blocks into their union group (temp labels are drawn from
    the labels unused by that child's merge targets, which always
    suffice)."""

    def rec(state, want: dict[int, int]) -> tuple:
        entry = prov[state]
        if entry[0] == "leaf":
            _, v = entry
            (block,) = state[1]
            return ("leaf", want[block])
        _, stA, stB, Q = entry
        label_of_group = {g: want[g] for g in Q}

        def build_child(st) -> tuple:
            child_blocks = st[1]
            by_group: dict[int, list[int]] = {}
            for b in child_blocks:
                g = next(g for g in Q if g & b == b)
                by_group.setdefault(g, []).append(b)
            reps = {g: bs[0] for g, bs in by_group.items()}
            used_finals = {label_of_group[g] for g in by_group}
            spares = [l for l in range(1, k + 1) if l not in used_finals]
            child_want: dict[int, int] = {}
            merges: list[tuple[int, int]] = []
            for g, bs in by_group.items():
                child_want[reps[g]] = label_of_group[g]
                for b in bs[1:]:
                    tmp = spares.pop()
                    child_want[b] = tmp
                    merges.append((tmp, label_of_group[g]))
            e = rec(st, child_want)
            for (i, j) in merges:
                e = ("relabel", i, j, e)
            return e

        expr = ("union", build_child(stA), build_child(stB))
        for (ia, ib) in _join_pairs(G_adj, Q, stA[0], stB[0]):
            expr = ("join", label_of_group[Q[ia]], label_of_group[Q[ib]], expr)
        return expr

    top_want = {b: i + 1 for i, b in enumerate(goal[1])}
    return rec(goal, top_want)
