"""Exact treewidth and clique-width oracles with verifiable certificates.

Both oracles are exhaustive and intended for small graphs: treewidth by
a search over elimination prefixes for each width k, from the degeneracy
up to the width of a greedy least-degree elimination (cap 20 vertices),
clique-width by a search over labeled partial constructions taken from
one last-in-first-out agenda, one per orbit of the automorphisms of the
graph, from a lower bound by an induced P4 (cap 8 by default; grid(3,3)
at cap 10, grid(3,4) at cap 12 and grid(4,4) at cap 16 fit the default
budget).
Each state of that search keeps one summary per block (the OR and the
AND of its vertices' adjacency rows), so a union step reads blocks,
never vertices, and returns all its groupings in one call.  The
clique-width budget counts the union steps the search makes and the
groupings they close: one unit per step, and one for each grouping it
completes or cuts short, so a step that closes none still costs one.
Each returns a certificate — a tree decomposition or a k-expression —
that the companion verifier checks independently; the verifiers reject
bag vertices outside the graph, expression nodes with the wrong number
of fields, and labels that are not ints.

A constructive decomposition extension is included: subdividing every
edge into a path of length t raises treewidth to at most max(k, 3),
realized by hanging bags {u, v, p_i, p_{i+1}} along each subdividing
path off a bag containing both original endpoints.
"""

from __future__ import annotations

import json
import reprlib
from itertools import combinations
from typing import Iterable, Optional

from .graphs import GraphError, LabeledGraph, _load_json, _subdivision
from .records import Frozen
from .search import (BudgetExhausted, _automorphisms, _mask_map,
                     is_isomorphic)
from .table import bits


class WidthError(ValueError):
    pass


class SizeCapExceeded(WidthError):
    """The input exceeds the oracle's vertex cap (distinct from a budget)."""


def _load_certificate(text: str, kind: str) -> dict:
    data = _load_json(text, WidthError, f"{kind} certificate")
    if not isinstance(data, dict) or data.get("type") != kind:
        raise WidthError(f"not a {kind} certificate")
    return data


# ---------------------------------------------------------------------------
# Tree decompositions
# ---------------------------------------------------------------------------

class TreeDecomposition(Frozen):
    """Bags indexed 0..len(bags)-1 joined into a tree by tree_edges."""

    __match_args__ = ("bags", "tree_edges")

    def __init__(self, bags: tuple[frozenset[int], ...],
                 tree_edges: frozenset[tuple[int, int]]):
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "tree_edges", tree_edges)

    @staticmethod
    def build(bags: Iterable[Iterable[int]],
              tree_edges: Iterable[tuple[int, int]]) -> "TreeDecomposition":
        bs = tuple(frozenset(b) for b in bags)
        te = frozenset((min(a, b), max(a, b)) for (a, b) in tree_edges)
        for (a, b) in te:
            if a == b:
                raise WidthError(f"tree edge ({a},{b}) is a loop")
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
    for i, b in enumerate(td.bags):
        for v in sorted(b):
            if not 0 <= v < G.n:
                return f"bag {i} holds {v}, which is not a vertex of G"
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


def _eliminate(elim: list[int], v: int) -> None:
    """Eliminate v from the elimination graph ``elim`` in place: its
    neighbours become a clique and lose v.  Each row then holds what its
    vertex reaches through the vertices eliminated so far."""
    nb = elim[v]
    for w in bits(nb):
        elim[w] = (elim[w] | nb) & ~(1 << v | 1 << w)


def _elimination_bound(adj: list[int], fill: bool = True
                       ) -> tuple[int, list[int]]:
    """Remove a vertex of least degree, the lowest on ties, until none is
    left, and return the largest degree met with the order.  With
    ``fill`` each removal is an elimination, and the largest degree is
    the width of a greedy elimination, an upper bound on the treewidth.
    Without, it is the degeneracy, a lower bound (Bodlaender & Koster,
    "Treewidth computations II. Lower bounds", 2011)."""
    adj = list(adj)
    left = (1 << len(adj)) - 1
    width, order = 0, []
    while left:
        v = min(bits(left), key=lambda u: (adj[u] & left).bit_count())
        left &= ~(1 << v)
        width = max(width, (adj[v] & left).bit_count())
        order.append(v)
        if fill:
            _eliminate(adj, v)
    return width, order


def _prefixes_within(adj: list[int], k: int) -> dict[int, int]:
    """The elimination prefixes reached by eliminating only vertices with
    at most k neighbours, each with the vertex eliminated last in it (-1
    for the empty prefix).  Depth-first, each prefix reached once, as a
    vertex's neighbours depend on the set eliminated before it, not on
    its order.  The search stops at the full mask, so a result without
    it is exhaustive."""
    full = (1 << len(adj)) - 1
    last = {0: -1}
    # a prefix, the elimination graph before its last vertex u, and u
    stack = [(0, adj, -1)]
    while stack:
        prefix, elim, u = stack.pop()
        if prefix == full:
            break
        if u >= 0:
            elim = list(elim)
            _eliminate(elim, u)
        for v in bits(full & ~prefix):
            nxt = prefix | 1 << v
            if nxt not in last and elim[v].bit_count() <= k:
                last[nxt] = v
                stack.append((nxt, elim, v))
    return last


def _order_decomposition(adj: list[int], order: list[int]
                         ) -> TreeDecomposition:
    """The decomposition of an elimination order: bag i holds order[i]
    and its neighbours when it is eliminated, and is joined to the bag
    of the first of those neighbours in the order, or to bag i + 1 when
    it has none."""
    pos = {v: i for i, v in enumerate(order)}
    bags, tree_edges = [], []
    elim = list(adj)
    for i, v in enumerate(order):
        nb = elim[v]
        _eliminate(elim, v)
        bags.append(frozenset({v, *bits(nb)}))
        if nb:
            tree_edges.append((i, min(pos[w] for w in bits(nb))))
        elif i + 1 < len(order):
            tree_edges.append((i, i + 1))
    return TreeDecomposition.build(bags, tree_edges)


def treewidth_exact(G: LabeledGraph, cap: int = 20
                    ) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witnessing decomposition.

    The treewidth is the least over elimination orders of the most
    neighbours a vertex has when it is eliminated.  It is at least the
    degeneracy, as a subgraph's treewidth is at least its least degree,
    and at most the width of a greedy elimination.  For each k from the
    degeneracy up, a search over elimination prefixes looks for an order
    within k; the first k that has one is the treewidth, the search at
    k - 1 having failed exhaustively.  Else the greedy order is the
    witness.  The decomposition is that of the order found.  The cap is
    the only limit; at 20 vertices the slowest graphs measured are
    sparse, such as random 3-regular ones.
    """
    if G.n > cap:
        raise SizeCapExceeded(f"treewidth cap is {cap} vertices, got {G.n}")
    if G.n == 0:
        return -1, TreeDecomposition((), frozenset())
    adj = G.adjacency_masks()
    width, order = _elimination_bound(adj)
    for k in range(_elimination_bound(adj, fill=False)[0], width):
        last = _prefixes_within(adj, k)
        mask = (1 << G.n) - 1
        if mask in last:
            width, order = k, []
            while mask:
                order.insert(0, last[mask])
                mask &= ~(1 << order[0])
            break
    td = _order_decomposition(adj, order)
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
    H, paths = _subdivision(G, t)
    for path in paths:
        u, v = path[0], path[-1]
        anchor = next(i for i, b in enumerate(td.bags) if u in b and v in b)
        prev_node = anchor
        for a, b in zip(path, path[1:]):
            bags.append({u, v, a, b})
            tree_edges.append((prev_node, len(bags) - 1))
            prev_node = len(bags) - 1
    out = TreeDecomposition.build(bags, tree_edges)
    bad = decomposition_violation(H, out)
    if bad is not None:
        raise WidthError(f"internal: extended decomposition invalid: {bad}")
    return out


# ---------------------------------------------------------------------------
# k-expressions
# ---------------------------------------------------------------------------

# the fields after the op of each kind of expression node
_FIELDS = {"leaf": 1, "union": 2, "join": 3, "relabel": 3}


class KExpression(Frozen):
    """An expression over: ("leaf", label), ("union", a, b),
    ("join", i, j, sub) adding all edges between labels i and j, and
    ("relabel", i, j, sub) turning label i into label j.  Labels run
    over 1..k."""

    __match_args__ = ("k", "root")

    def __init__(self, k: int, root: tuple):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "root", root)

    def evaluate(self) -> tuple[LabeledGraph, list[int]]:
        """The graph the expression builds plus the final vertex labels.

        Vertices are numbered by leaf order, left to right.  The walk
        keeps its own stack, so a deep expression needs no recursion.
        """
        labels: list[int] = []
        edges: set[tuple[int, int]] = set()
        done: list[tuple[int, int]] = []   # vertex ranges of finished nodes
        todo: list[tuple[object, bool]] = [(self.root, False)]
        while todo:
            node, children_done = todo.pop()
            if children_done:
                if node[0] == "union":
                    (lo, _), (_, hi) = done[-2:]
                    done[-2:] = [(lo, hi)]
                    continue
                _, i, j, _ = node
                lo, hi = done[-1]
                if node[0] == "relabel":
                    labels[lo:hi] = [j if l == i else l
                                     for l in labels[lo:hi]]
                    continue
                ends = [v for v in range(lo, hi) if labels[v] == i]
                edges.update((min(u, w), max(u, w)) for u in ends
                             for w in range(lo, hi) if labels[w] == j)
                continue
            if not (isinstance(node, tuple) and node):
                raise WidthError(f"malformed expression node: {node!r}")
            op = node[0]
            if not isinstance(op, str) or op not in _FIELDS:
                raise WidthError(
                    f"unknown expression op {reprlib.repr(op)}")
            if len(node) != 1 + _FIELDS[op]:
                raise WidthError(
                    f"malformed expression node {reprlib.repr(node)}: "
                    f"a {op} node has {1 + _FIELDS[op]} entries")
            if op == "leaf":
                _, lbl = node
                self._check_label(lbl)
                done.append((len(labels), len(labels) + 1))
                labels.append(lbl)
            elif op == "union":
                _, a, b = node
                todo += [(node, True), (b, False), (a, False)]
            elif op in ("join", "relabel"):
                _, i, j, sub = node
                self._check_label(i)
                self._check_label(j)
                if op == "join" and i == j:
                    raise WidthError("join requires two distinct labels")
                todo += [(node, True), (sub, False)]
        return LabeledGraph.build(len(labels), edges), labels

    def _check_label(self, lbl) -> None:
        if not (type(lbl) is int and 1 <= lbl <= self.k):
            raise WidthError(f"label {lbl!r} outside 1..{self.k}")

    def to_json(self) -> str:
        """The text of ``json.dumps`` with ``indent=2``, written from an
        explicit stack, so a deep expression can be saved."""
        out = ['{\n  "type": "k-expression",\n  "k": ', json.dumps(self.k),
               ',\n  "root": ']
        # (value, indent level) to write, or (text, None) to copy
        todo: list[tuple[object, Optional[int]]] = [(self.root, 1)]
        while todo:
            x, level = todo.pop()
            if level is None:
                out.append(x)
            elif isinstance(x, (list, tuple)) and x:
                pad = "\n" + "  " * (level + 1)
                out.append("[")
                todo.append(("\n" + "  " * level + "]", None))
                for i in reversed(range(len(x))):
                    todo += [(x[i], level + 1), ("," + pad if i else pad, None)]
            else:
                out.append(json.dumps(x, indent=2).replace(
                    "\n", "\n" + "  " * level))
        out.append("\n}")
        return "".join(out)

    @staticmethod
    def from_json(text: str) -> "KExpression":
        data = _load_certificate(text, "k-expression")
        k, root = data.get("k"), data.get("root")
        if type(k) is not int or not isinstance(root, list):
            raise WidthError('k-expression needs "k", an integer, and '
                             '"root", a list')

        # lists become tuples bottom-up, on an explicit stack
        out: list = []
        todo: list[tuple[object, bool]] = [(root, False)]
        while todo:
            x, children_done = todo.pop()
            if children_done:
                cut = len(out) - len(x)
                out[cut:] = [tuple(out[cut:])]
            elif isinstance(x, list):
                todo.append((x, True))
                todo += [(c, False) for c in reversed(x)]
            else:
                out.append(x)
        return KExpression(k, out[0])


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
# labeling), and the search keeps one state per orbit of a group of
# automorphisms of G, the first found.  An automorphism maps the union
# steps of two states onto those of their images, so pairing each kept
# state with every image of every kept state reaches an image of every
# state; and a k-expression names labels, not vertices, so the
# expression of a state serves each of its images.  Correctness depends
# on neither quotient, only the state count: every group gives the same
# width, the identity alone the plain search.
# Each state has one summary per block, computed once when the state is
# taken from the agenda: the block, the OR of its vertices' adjacency
# rows and their AND.  By the second fact the OR, cut to any set outside
# S, is the neighbourhood there of every vertex of the block, so a union
# step reads blocks, never vertices.  It places the blocks of two states
# into groups and cuts a placement at its first incomplete join; the
# budget counts every union step and every grouping it so closes,
# complete or cut, up to the first state with every vertex: grid(3,3)
# at cap 10 spends 2,960 (1,520 steps closing 1,440 groupings),
# grid(3,4) at cap 12 68,014 and grid(4,4) at cap 16 842,103 (11,742,
# 409,908 and more than 2,000,000 with a state per state).

def _summaries(adj: list[int], blocks: tuple[int, ...]
               ) -> tuple[tuple[int, int, int], ...]:
    """(block, OR of its vertices' adjacency rows, AND of them) for each
    block."""
    out = []
    for b in blocks:
        near, common, m = 0, -1, b
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            near |= adj[v]
            common &= adj[v]
        out.append((b, near, common))
    return tuple(out)


def _unions(summA: tuple, mA: int, summB: tuple, mB: int, outside: int,
            k: int) -> tuple[list[tuple[tuple[int, ...], list]], int]:
    """Every grouping of the blocks of two disjoint states into at most k
    classes that leaves a live state, with the joins the union needs,
    and the number of placements cut on the way.

    The states come as their block summaries.  Blocks are placed one at
    a time.  A block joins a group only if it has the group's
    neighbourhood outside the union (its signature, the OR cut to
    ``outside``) and no edge to the group's part from the other state
    (an edge inside a class can never be added).  Each group keeps its
    neighbours in the other state and its common neighbourhood, and a
    placement is cut as soon as two groups have a crossing edge but are
    not complete to each other: the join they need would add non-edges,
    and adding blocks only adds crossing edges and removes common
    neighbours.  The complete groupings come as (groups, joins), the
    group index pairs whose join adds the crossing edges, in depth-first
    order.
    """
    # (block, signature, neighbours in the other state, common neighbours)
    blocks = [(b, near & outside, near & mB, com) for b, near, com in summA]
    blocks += [(b, near & outside, near & mA, com) for b, near, com in summB]
    groups: list[int] = []
    # per group index below len(groups): its signature, its neighbours in
    # the other state and its common neighbourhood
    sigs, cross, common = [0] * k, [0] * k, [0] * k
    done = []
    cuts = 0
    # Depth-first without recursion: at[i] is the group block i is in (-1
    # before its first try) and undo[i] what that group held before it,
    # None when block i opened the group.
    last = len(blocks)
    at = [-1] * last
    undo: list = [None] * last
    i = 0
    while i >= 0:
        if i == last:
            done.append((tuple(groups),
                         [(ia, ib) for ia, ib
                          in combinations(range(len(groups)), 2)
                          if cross[ia] & groups[ib]]))
            i -= 1
            continue
        b, sig, near, com = blocks[i]
        g = at[i]
        if g >= 0:  # take block i out of its group
            if undo[i] is None:
                groups.pop()
            else:
                groups[g], cross[g], common[g] = undo[i]
        g += 1  # the next group block i may join, else a new one
        ng = len(groups)
        while g < ng and (sigs[g] != sig or near & groups[g]):
            g += 1
        if g < ng:
            undo[i] = groups[g], cross[g], common[g]
            groups[g] |= b
            cg = cross[g] = cross[g] | near
            kg = common[g] = common[g] & com
        elif g == ng < k:
            undo[i] = None
            groups.append(b)
            sigs[g] = sig
            cg = cross[g] = near
            kg = common[g] = com
        else:  # no placement left: back to block i - 1
            at[i] = -1
            i -= 1
            continue
        at[i] = g
        # cut when a join with group g is needed but would add a non-edge;
        # g itself never meets its own cross neighbours
        for gh in groups:
            if cg & gh and kg & gh != gh:
                cuts += 1
                break
        else:
            i += 1
    return done, cuts


def _has_induced_p4(adj: list[int]) -> bool:
    """Whether the graph of adjacency rows adj has an induced path
    a-b-c-d: for an edge bc, a neighbour of b alone and a neighbour of c
    alone that are not adjacent."""
    for b, nb in enumerate(adj):
        for c in bits(nb):
            only_c = adj[c] & ~nb & ~(1 << b)
            for a in bits(nb & ~adj[c] & ~(1 << c)):
                if only_c & ~adj[a]:
                    return True
    return False


def cliquewidth_exact(G: LabeledGraph, cap: int = 8,
                      budget: int = 2_000_000
                      ) -> tuple[int, KExpression]:
    """Least k admitting a k-expression, with a witnessing expression.

    Exhaustive per k: returning k certifies that no (k-1)-expression
    exists.  The search starts at a certified lower bound: 1, or 2 when
    G has an edge, or 3 when it has an induced P4, as the graphs of
    clique-width at most 2 are the P4-free ones (Courcelle & Olariu
    2000).  It keeps one state per orbit of the automorphisms of G.
    ``budget`` bounds the union steps the search makes and the groupings
    they close: a step costs one unit, and each grouping it completes or
    cuts at an incomplete join one more; exceeding it raises
    BudgetExhausted rather than guessing.  Raise the cap for 9-16
    vertices: of the default 2,000,000, grid(3,3) at cap 10 spends 2,960,
    grid(3,4) at cap 12 spends 68,014 and grid(4,4) at cap 16 spends
    842,103.
    """
    return _cliquewidth(G, cap, budget)


def _cliquewidth(G: LabeledGraph, cap: int, budget: int,
                 automorphisms: Optional[list[list[int]]] = None
                 ) -> tuple[int, KExpression]:
    """``cliquewidth_exact`` over the orbits of a group of automorphisms
    of G, labels ignored: by default all of them, as ``_automorphisms``
    lists them.  With the identity alone every state is its own orbit."""
    if G.n > cap:
        raise SizeCapExceeded(f"clique-width cap is {cap} vertices, got {G.n}")
    if G.n == 0:
        raise WidthError("clique-width of the empty graph is undefined here")
    n = G.n
    adj = G.adjacency_masks()
    if automorphisms is None:
        automorphisms = _automorphisms(G, respect_labels=False)
    identity = list(range(n))
    # the identity first, then the rest in the order given
    maps = [_mask_map(p) for p in
            [identity] + [p for p in automorphisms if p != identity]]
    low = 1 if not any(adj) else 3 if _has_induced_p4(adj) else 2
    spent = 0
    for k in range(low, n + 1):
        prov: dict[tuple[int, tuple[int, ...]], tuple] = {}
        goal, spent = _grow(adj, k, maps, prov, budget, spent)
        if goal is not None:
            return k, KExpression(k, _rebuild_expression(prov, goal, k,
                                                          maps))
    raise WidthError("internal: no expression found at k = n")


def _orbit(maps: list, st: tuple[int, tuple[int, ...]]) -> list:
    """The image of the state st, a mask and its sorted blocks, under
    each of the mask maps, the identity first, in their order."""
    mask, blocks = st
    return [st] + [(f(mask), tuple(sorted(map(f, blocks))))
                   for f in maps[1:]]


def _grow(adj: list[int], k: int, maps: list, prov: dict, budget: int,
          spent: int) -> tuple[Optional[tuple[int, tuple[int, ...]]], int]:
    """Search the states of width k, one per orbit, into prov, and return
    the first whose mask is full, or None, with the budget spent so far,
    ``spent`` before the search: one unit per union step and one per
    grouping it closes.

    The states wait on one last-in-first-out agenda, the leaves first,
    the lowest vertex on top.  A state taken from it adds each distinct
    image of itself to the partners, with the index of the mask map that
    gives the image first, and is then paired with every partner, its
    own images included.  So every two orbits meet once, when the later
    is taken, and a search that returns None has tried them all."""
    n = len(adj)
    full = (1 << n) - 1
    seen: set = set()  # every state of every orbit kept
    agenda = []
    for v in range(n):
        st = (1 << v, (1 << v,))
        if st in seen:  # a lower vertex of its orbit came first
            continue
        seen.update(_orbit(maps, st))
        prov[st] = ("leaf",)
        if st[0] == full:
            return st, spent
        agenda.append(st)
    agenda.reverse()
    # the distinct images of each state taken: (the state, the index of
    # the map giving the image, its mask, its summaries)
    partners: list[tuple[tuple, int, int, tuple]] = []
    while agenda:
        stA = agenda.pop()
        mA = stA[0]
        summA = _summaries(adj, stA[1])
        met = set()
        for i, img in enumerate(_orbit(maps, stA)):
            if img in met:
                continue
            met.add(img)
            f = maps[i]
            # an automorphism maps each block's OR and AND to its image's
            images = summA if i == 0 else tuple(
                (f(b), f(near), f(com)) for b, near, com in summA)
            partners.append((stA, i, img[0], images))
        for stB, sigma, mB, summB in partners:
            if mA & mB:
                continue
            mask = mA | mB
            done, cuts = _unions(summA, mA, summB, mB, full & ~mask, k)
            spent += 1 + len(done) + cuts
            if spent > budget:
                raise BudgetExhausted(budget)
            for Q, joins in done:
                st = (mask, tuple(sorted(Q)))
                if st in seen:
                    continue
                seen.update(_orbit(maps, st))
                prov[st] = ("union", stA, stB, sigma, Q, joins)
                if mask == full:
                    return st, spent
                agenda.append(st)
    return None, spent


def _rebuild_expression(prov: dict, goal, k: int, maps: list) -> tuple:
    """Top-down reconstruction: each state is told which label every one
    of its blocks must carry, so relabels are only ever needed to merge
    sibling blocks into their union group (temp labels are drawn from
    the labels unused by that child's merge targets, which always
    suffice).  A k-expression names labels, not vertices, so the
    expression of a state serves each of its images under an
    automorphism: a state found as the union of A and the image under
    sigma of B, its blocks the groups, tells B's block b the label
    wanted for the group holding sigma(b)."""

    def rec(state, want: dict[int, int]) -> tuple:
        entry = prov[state]
        if entry[0] == "leaf":
            (block,) = state[1]
            return ("leaf", want[block])
        _, stA, stB, sigma, Q, joins = entry

        def build_child(st, image) -> tuple:
            child_blocks = st[1]
            by_group: dict[int, list[int]] = {}
            for b in child_blocks:
                ib = image(b)
                g = next(g for g in Q if g & ib == ib)
                by_group.setdefault(g, []).append(b)
            reps = {g: bs[0] for g, bs in by_group.items()}
            used_finals = {want[g] for g in by_group}
            spares = [l for l in range(1, k + 1) if l not in used_finals]
            child_want: dict[int, int] = {}
            merges: list[tuple[int, int]] = []
            for g, bs in by_group.items():
                child_want[reps[g]] = want[g]
                for b in bs[1:]:
                    tmp = spares.pop()
                    child_want[b] = tmp
                    merges.append((tmp, want[g]))
            e = rec(st, child_want)
            for (i, j) in merges:
                e = ("relabel", i, j, e)
            return e

        expr = ("union", build_child(stA, maps[0]),
                build_child(stB, maps[sigma]))
        for (ia, ib) in joins:
            expr = ("join", want[Q[ia]], want[Q[ib]], expr)
        return expr

    top_want = {b: i + 1 for i, b in enumerate(goal[1])}
    return rec(goal, top_want)
