"""Finite labeled graphs and the combinatorial graph constructions.

Vertices are dense 0-based indices.  Generator coordinates such as grid
positions are retained as vertex-name strings so that embeddings and
certificates can be reported in the coordinates the constructions are
defined in.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping, Optional

from .records import Frozen


class GraphError(ValueError):
    """Raised for malformed graphs or invalid construction parameters."""


def _load_json(text: str, error: type[ValueError], what: str):
    """The value of a JSON text; one that is not JSON, or nests deeper
    than the decoder's recursion reaches, raises error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error(f"{what} nested too deeply to parse") from None
    except ValueError as exc:
        raise error(f"{what} is not JSON: {exc}") from None


class LabeledGraph(Frozen):
    """An undirected simple graph with named unary label sets.

    ``edges`` is stored canonically as sorted ``(u, v)`` pairs with
    ``u < v``; the edge relation is irreflexive and symmetric.  Graphs
    compare by their fields; the labels are a dict, so a graph has no
    hash.
    """

    __match_args__ = ("n", "edges", "labels", "names")
    # The adjacency rows, made once per graph on first use and handed on
    # by with_labels; an attribute outside the fields, set only through
    # object.__setattr__, so the instance dict is never materialized.
    _adj = None

    def __init__(self, n: int, edges: frozenset[tuple[int, int]],
                 labels: Optional[Mapping[str, frozenset[int]]] = None,
                 names: Optional[Mapping[int, str]] = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", {} if labels is None else labels)
        object.__setattr__(self, "names", {} if names is None else names)
        self.__post_init__()

    def __post_init__(self):
        for (u, v) in self.edges:
            if u == v:
                raise GraphError(f"loop edge ({u},{v}) not allowed")
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range or not canonical")
        for name, verts in self.labels.items():
            self._check_label(name, verts)
        for v in self.names:
            if not (0 <= v < self.n):
                raise GraphError(f"name {self.names[v]!r} given to "
                                 f"out-of-range vertex {v}")

    def _check_label(self, name: str, verts: frozenset[int]) -> None:
        for v in verts:
            if not (0 <= v < self.n):
                raise GraphError(f"label {name!r} contains out-of-range vertex {v}")

    @staticmethod
    def build(n: int,
              edges: Iterable[tuple[int, int]],
              labels: Optional[Mapping[str, Iterable[int]]] = None,
              names: Optional[Mapping[int, str]] = None) -> "LabeledGraph":
        """Canonicalize and construct; accepts edges in either orientation."""
        canon = set()
        for (u, v) in edges:
            if u == v:
                raise GraphError(f"loop edge ({u},{v}) not allowed")
            canon.add((u, v) if u < v else (v, u))
        labs = {k: frozenset(vs) for k, vs in (labels or {}).items()}
        return LabeledGraph(n, frozenset(canon), labs, dict(names or {}))

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        """Neighbourhoods as bitmasks, for the search cores: a fresh list
        of rows computed once per graph."""
        return list(self._adjacency_rows())

    def _adjacency_rows(self) -> tuple[int, ...]:
        if self._adj is None:
            adj = [0] * self.n
            for (u, v) in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            object.__setattr__(self, "_adj", tuple(adj))
        return self._adj

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def name_of(self, v: int) -> str:
        return self.names.get(v, str(v))

    def with_labels(self, extra: Mapping[str, Iterable[int]]) -> "LabeledGraph":
        labs = dict(self.labels)
        for k, vs in extra.items():
            labs[k] = frozenset(vs)
            self._check_label(k, labs[k])
        # the rest of self is valid already, and so are its rows
        return LabeledGraph._unchecked(self.n, self.edges, labs,
                                       self.names, self._adjacency_rows())

    @staticmethod
    def _unchecked(n: int, edges: frozenset[tuple[int, int]],
                   labels: dict[str, frozenset[int]], names: dict[int, str],
                   adj: tuple[int, ...]) -> "LabeledGraph":
        """The graph of fields already canonical and in range, and of
        the adjacency rows adj: the fields are set as __init__ sets
        them, without the checks of __post_init__."""
        g = object.__new__(LabeledGraph)
        for attr, value in (("n", n), ("edges", edges), ("labels", labels),
                            ("names", names), ("_adj", adj)):
            object.__setattr__(g, attr, value)
        return g

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "edges": sorted([list(e) for e in self.edges]),
            "labels": {k: sorted(vs) for k, vs in sorted(self.labels.items())},
            "names": {str(v): s for v, s in sorted(self.names.items())},
        }
        return json.dumps(obj, indent=1)

    @staticmethod
    def from_json(text: str) -> "LabeledGraph":
        obj = _load_json(text, GraphError, "graph JSON")
        if not isinstance(obj, dict):
            raise GraphError("graph JSON must be an object")
        n, edges = obj.get("n"), obj.get("edges")
        if type(n) is not int or n < 0:
            raise GraphError('graph JSON needs "n", a non-negative integer')
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and
                all(type(v) is int for v in e) for e in edges):
            raise GraphError('graph JSON needs "edges", a list of vertex pairs')
        labels, names = obj.get("labels", {}), obj.get("names", {})
        if not isinstance(labels, dict) or not all(
                isinstance(vs, list) and all(type(v) is int for v in vs)
                for vs in labels.values()):
            raise GraphError('graph JSON "labels" must map names to lists '
                             'of vertices')
        if not isinstance(names, dict) or not all(
                v.isascii() and v.isdigit() and isinstance(s, str)
                for v, s in names.items()):
            raise GraphError('graph JSON "names" must map vertex numbers '
                             'to strings')
        return LabeledGraph.build(
            n,
            [tuple(e) for e in edges],
            labels,
            {int(v): s for v, s in names.items()},
        )

    def to_dot(self) -> str:
        palette = ["lightblue", "salmon", "palegreen", "gold", "orchid",
                   "tan", "cyan", "gray80"]
        colour = {}
        for idx, name in enumerate(sorted(self.labels)):
            for v in self.labels[name]:
                colour.setdefault(v, palette[idx % len(palette)])
        lines = ["graph G {"]
        for v in range(self.n):
            attrs = [f'label="{self.name_of(v)}"']
            if v in colour:
                attrs.append(f'style=filled, fillcolor={colour[v]}')
            lines.append(f'  {v} [{", ".join(attrs)}];')
        for (u, v) in sorted(self.edges):
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Grids and triangular grids
# ---------------------------------------------------------------------------

def grid(m: int, n: int) -> LabeledGraph:
    """The m x n grid, vertices in row-major order, names "(i,j)" 1-based."""
    if m < 1 or n < 1:
        raise GraphError("grid dimensions must be >= 1")
    def vid(i, j):  # 1-based coordinates
        return (i - 1) * n + (j - 1)
    edges = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if j < n:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i < m:
                edges.append((vid(i, j), vid(i + 1, j)))
    names = {vid(i, j): f"({i},{j})" for i in range(1, m + 1) for j in range(1, n + 1)}
    return LabeledGraph.build(m * n, edges, names=names)


def upper_tri_grid(t: int) -> LabeledGraph:
    """The upper triangular grid U_t on vertices u_{i,j} with i <= j <= t.

    Horizontal edges {u_{i,j}, u_{i,j+1}} for j < t, i <= j; vertical
    edges {u_{i,j}, u_{i+1,j}} for j > 1, i < j.
    """
    if t < 1:
        raise GraphError("upper_tri_grid size must be >= 1")
    idx = {}
    names = {}
    for j in range(1, t + 1):
        for i in range(1, j + 1):
            idx[(i, j)] = len(idx)
            names[idx[(i, j)]] = f"({i},{j})"
    edges = []
    for j in range(1, t):
        for i in range(1, j + 1):
            edges.append((idx[(i, j)], idx[(i, j + 1)]))
    for j in range(2, t + 1):
        for i in range(1, j):
            edges.append((idx[(i, j)], idx[(i + 1, j)]))
    return LabeledGraph.build(len(idx), edges, names=names)


class SubdivisionPlan(Frozen):
    """Which columns of U_r get their horizontal edges replaced by paths.

    ``path_sizes[j]`` is the number of vertices on the replacing path,
    endpoints included; 2 means the edge is left alone.
    """

    __match_args__ = ("r", "path_sizes")

    def __init__(self, r: int, path_sizes: Mapping[int, int]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "path_sizes", path_sizes)  # j -> k_j >= 2
        for j, k in self.path_sizes.items():
            if not (1 <= j <= self.r - 1):
                raise GraphError(f"subdivided column {j} out of range for r={self.r}")
            if k < 2:
                raise GraphError(f"path size k_{j}={k} must be >= 2")


def uniform_subdivide_utg(plan: SubdivisionPlan) -> tuple[LabeledGraph, frozenset[int]]:
    """Uniform subdivision of U_r; returns the graph and its original vertices.

    Every horizontal edge {u_{i,j}, u_{i,j+1}} with j in the plan is
    replaced by a path on k_j vertices (endpoints included).
    """
    base = upper_tri_grid(plan.r)
    # u_{i,j} is vertex j(j-1)/2 + i - 1 of U_r
    inner = {(j * (j - 1) // 2 + i, j * (j + 1) // 2 + i): k - 2
             for j, k in plan.path_sizes.items() for i in range(j)}
    G, _ = _replace_edges(base, lambda u, v: inner.get((u, v), 0),
                          lambda u, v, s: f"{base.name_of(u)}+{s}")
    return G, frozenset(range(base.n))


def contract_subdivision(H: LabeledGraph, originals: Iterable[int]) -> LabeledGraph:
    """Contract the degree-2 non-original vertices of H away.

    The result has vertex set ``originals`` (reindexed, names kept); x and
    y are adjacent iff H has a path between them whose interior vertices
    are all non-original.  Parallel results collapse to a simple edge.
    """
    orig = sorted(set(originals))
    orig_set = set(orig)
    adj = H.adjacency()
    deg = H.degree_sequence()
    for v in range(H.n):
        if v not in orig_set and deg[v] != 2:
            raise GraphError(f"non-original vertex {v} has degree {deg[v]}, expected 2")
    newid = {v: i for i, v in enumerate(orig)}
    edges = set()
    for x in orig:
        for start in adj[x]:
            prev, cur = x, start
            while cur not in orig_set:
                nxts = [w for w in adj[cur] if w != prev]
                prev, cur = cur, nxts[0]
            if cur != x:
                edges.add((min(newid[x], newid[cur]), max(newid[x], newid[cur])))
    names = {newid[v]: H.name_of(v) for v in orig}
    labels = {k: frozenset(newid[v] for v in vs if v in orig_set)
              for k, vs in H.labels.items()}
    return LabeledGraph.build(len(orig), edges, labels=labels, names=names)


# ---------------------------------------------------------------------------
# The 3-regular gadget graphs and subdivisions
# ---------------------------------------------------------------------------

def make_Tn(n: int) -> LabeledGraph:
    """3-regular graph obtained from the n x n grid by two local rewrites.

    Degree-2 vertices (the corners) are removed with their neighbours
    joined; each degree-4 vertex is replaced by a 4-cycle, one former
    incident edge reattached to each cycle vertex.  Degrees are taken in
    the original grid.
    """
    if n < 3:
        raise GraphError("make_Tn requires n >= 3")
    G = grid(n, n)
    adj = G.adjacency()
    deg = G.degree_sequence()
    # Ports: each original vertex exposes attachment points for its edges.
    nverts = 0
    port: dict[tuple[int, int], int] = {}     # (vertex, neighbour) -> new vertex id
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for v in range(G.n):
        if deg[v] == 2:
            continue
        if deg[v] == 3:
            vid = nverts
            nverts += 1
            names[vid] = G.name_of(v)
            for u in adj[v]:
                port[(v, u)] = vid
        else:  # degree 4: 4-cycle, neighbours in sorted order
            cyc = []
            for k, u in enumerate(sorted(adj[v])):
                vid = nverts
                nverts += 1
                names[vid] = f"{G.name_of(v)}.{k + 1}"
                port[(v, u)] = vid
                cyc.append(vid)
            for k in range(4):
                edges.append((cyc[k], cyc[(k + 1) % 4]))
    for (u, v) in G.edges:
        if deg[u] == 2 or deg[v] == 2:
            continue
        edges.append((port[(u, v)], port[(v, u)]))
    # Degree-2 removals: join the two neighbours of each removed vertex.
    for v in range(G.n):
        if deg[v] == 2:
            a, b = sorted(adj[v])
            edges.append((port[(a, v)], port[(b, v)]))
    return LabeledGraph.build(nverts, edges, names=names)


def _replace_edges(G: LabeledGraph, inner: Callable[[int, int], int],
                   name: Callable[[int, int, int], str]
                   ) -> tuple[LabeledGraph, list[list[int]]]:
    """G with each edge (u, v), u < v, replaced by a path from u to v
    through inner(u, v) new vertices, and those paths.  The new vertices
    are numbered on from G.n in sorted edge order; the s-th of a path is
    named name(u, v, s).  Every old vertex keeps its name, explicitly,
    and its labels."""
    names = {v: G.name_of(v) for v in range(G.n)}
    edges, paths, n = [], [], G.n
    for (u, v) in sorted(G.edges):
        path = [u, *range(n, n + inner(u, v)), v]
        n += len(path) - 2
        for s, p in enumerate(path[1:-1], 1):
            names[p] = name(u, v, s)
        edges += zip(path, path[1:])
        paths.append(path)
    return LabeledGraph.build(n, edges, labels=G.labels, names=names), paths


def _subdivision(G: LabeledGraph, t: int
                 ) -> tuple[LabeledGraph, list[list[int]]]:
    """G^t, t >= 2, and the path that replaces each edge of G, in sorted
    edge order."""
    return _replace_edges(G, lambda u, v: t - 1, lambda u, v, s:
                          f"{G.name_of(u)}~{G.name_of(v)}#{s}")


def subdivide(G: LabeledGraph, t: int) -> LabeledGraph:
    """The t-subdivision G^t: every edge becomes a path of length t."""
    if t < 1:
        raise GraphError("subdivision parameter must be >= 1")
    return G if t == 1 else _subdivision(G, t)[0]


def branch_vertices(H: LabeledGraph) -> frozenset[int]:
    """The degree-3 vertices of H; every vertex must have degree 2 or 3."""
    deg = H.degree_sequence()
    for v, d in enumerate(deg):
        if d not in (2, 3):
            raise GraphError(
                f"vertex {v} has degree {d}; graph is outside the degree-2/3 shape")
    return frozenset(v for v, d in enumerate(deg) if d == 3)


def mn(H: LabeledGraph) -> int:
    """Shortest graph distance between two distinct branch vertices of H."""
    branches = branch_vertices(H)
    if len(branches) < 2:
        raise GraphError("need at least 2 branch vertices")
    adj = H.adjacency()
    best = None
    for s in branches:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for b in branches:
            if b != s and b in dist and (best is None or dist[b] < best):
                best = dist[b]
    if best is None:
        raise GraphError("branch vertices are disconnected")
    return best


# ---------------------------------------------------------------------------
# Antichain families
# ---------------------------------------------------------------------------

def antichain_member_In(n: int) -> LabeledGraph:
    """Path c_1..c_n with end-marking pairs e_0,e_1 at c_1 and e_2,e_3 at c_n."""
    if n < 1:
        raise GraphError("antichain_member_In requires n >= 1")
    # vertices: 0..3 = e_0..e_3, 4..n+3 = c_1..c_n
    def c(i):
        return 3 + i
    edges = [(c(i), c(i + 1)) for i in range(1, n)]
    edges += [(0, c(1)), (1, c(1)), (2, c(n)), (3, c(n))]
    names = {i: f"e{i}" for i in range(4)}
    names.update({c(i): f"c{i}" for i in range(1, n + 1)})
    return LabeledGraph.build(n + 4, edges, names=names)


def tri_corner_grid(n: int) -> LabeledGraph:
    """The n x n grid with a triangle hung off each corner.

    At each corner two new mutually adjacent vertices are added, both
    adjacent to the corner vertex.
    """
    if n < 2:
        raise GraphError("tri_corner_grid requires n >= 2")
    G = grid(n, n)
    edges = set(G.edges)
    names = dict(G.names)
    nverts = G.n
    def vid(i, j):
        return (i - 1) * n + (j - 1)
    for (i, j) in [(1, 1), (1, n), (n, 1), (n, n)]:
        a, b = nverts, nverts + 1
        nverts += 2
        names[a] = f"({i},{j})'"
        names[b] = f"({i},{j})''"
        corner = vid(i, j)
        edges |= {(corner, a), (corner, b), (a, b)}
    return LabeledGraph.build(nverts, edges, names=names)


def induced_subgraph(G: LabeledGraph, S: Iterable[int]) -> LabeledGraph:
    """Subgraph induced by S, reindexed; provenance kept via names."""
    sub = sorted(set(S))
    for v in sub:
        if not (0 <= v < G.n):
            raise GraphError(f"vertex {v} out of range")
    newid = {v: i for i, v in enumerate(sub)}
    in_sub = set(sub)
    edges = [(newid[u], newid[v]) for (u, v) in G.edges if u in in_sub and v in in_sub]
    labels = {k: frozenset(newid[v] for v in vs if v in in_sub)
              for k, vs in G.labels.items()}
    names = {newid[v]: G.name_of(v) for v in sub}
    return LabeledGraph.build(len(sub), edges, labels=labels, names=names)
