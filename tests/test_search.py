import itertools
import random

import pytest

from msograph.bichain_family import build_Zn
from msograph.graphs import LabeledGraph, grid, make_Tn, upper_tri_grid
from msograph import search
from msograph.interpret import apply_all_params, builtin_induced
from msograph.search import (BudgetExhausted, _automorphisms, _Graph,
                             _mask_map, _pattern_order, _record, is_antichain,
                             is_induced_subgraph_of, is_isomorphic,
                             isomorphism_classes)


def _random_graph(rng, n):
    return LabeledGraph.build(
        n, [e for e in itertools.combinations(range(n), 2)
            if rng.random() < 0.5])


def _relabel(G, perm):
    """G with vertex v renamed perm[v]; labels move with their vertices."""
    return LabeledGraph.build(
        G.n, [(perm[u], perm[v]) for (u, v) in G.edges],
        {k: [perm[v] for v in vs] for k, vs in G.labels.items()})


def _signature(G, v):
    return frozenset(k for k, vs in G.labels.items() if v in vs)


def _assert_embedding(H, G, m, respect_labels=False):
    assert sorted(m) == list(range(H.n))
    assert len(set(m.values())) == H.n
    assert all(0 <= w < G.n for w in m.values())
    for u, v in itertools.combinations(range(H.n), 2):
        assert H.has_edge(u, v) == G.has_edge(m[u], m[v])
    if respect_labels:
        assert all(_signature(H, v) == _signature(G, m[v])
                   for v in range(H.n))


def _nx(G):
    import networkx as nx
    X = nx.Graph()
    X.add_nodes_from((v, {"sig": _signature(G, v)}) for v in range(G.n))
    X.add_edges_from(G.edges)
    return X


def test_induced_embedding_is_checked():
    P3 = LabeledGraph.build(3, [(0, 1), (1, 2)])
    K3 = LabeledGraph.build(3, [(0, 1), (1, 2), (0, 2)])
    # P3 is a subgraph of K3 but not an induced one
    assert is_induced_subgraph_of(P3, K3) is None
    assert is_induced_subgraph_of(P3, grid(2, 2)) is not None


def test_embedding_witness_is_an_embedding():
    H = grid(2, 2)
    G = grid(3, 3)
    m = is_induced_subgraph_of(H, G)
    assert m is not None
    for u, v in itertools.combinations(range(H.n), 2):
        assert H.has_edge(u, v) == G.has_edge(m[u], m[v])


def test_isomorphic_relabeled_graphs():
    rng = random.Random(5)
    for _ in range(20):
        G = _random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        H = LabeledGraph.build(7, [(perm[u], perm[v]) for (u, v) in G.edges])
        assert is_isomorphic(G, H) is not None


def test_non_isomorphic_same_degrees():
    C6 = LabeledGraph.build(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = LabeledGraph.build(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_isomorphic(C6, two_triangles) is None


def test_respect_labels():
    G = LabeledGraph.build(2, [(0, 1)], labels={"m": [0]})
    H = LabeledGraph.build(2, [(0, 1)], labels={"m": [1]})
    assert is_isomorphic(G, H, respect_labels=False) is not None
    iso = is_isomorphic(G, H, respect_labels=True)
    assert iso == {0: 1, 1: 0}
    # an empty label set of one graph has no match in the other
    G2 = LabeledGraph.build(2, [(0, 1)], labels={"m": [0], "e": []})
    assert is_isomorphic(G2, H, respect_labels=True) is None
    assert is_isomorphic(G2, H) is not None


def test_antichain_detects_comparable_pair():
    ok, witness = is_antichain([grid(2, 2), grid(3, 3)])
    assert not ok and witness == (0, 1)


def test_budget_raises():
    C7 = LabeledGraph.build(7, [(i, (i + 1) % 7) for i in range(7)])
    with pytest.raises(BudgetExhausted):
        # an odd cycle never embeds in a bipartite grid; the search has
        # to do real work to find that out
        is_induced_subgraph_of(C7, grid(4, 4), budget=10)


def _toggle_two_pairs(rng, G):
    """G with one edge removed and one non-edge added, when it has both:
    same vertex and edge counts, often the same degrees."""
    non_edges = [e for e in itertools.combinations(range(G.n), 2)
                 if e not in G.edges]
    if not G.edges or not non_edges:
        return G
    drop = rng.choice(sorted(G.edges))
    edges = (set(G.edges) - {drop}) | {rng.choice(non_edges)}
    return LabeledGraph.build(G.n, edges, G.labels)


def _random_labels(rng, G):
    return LabeledGraph.build(
        G.n, G.edges, {k: [v for v in range(G.n) if rng.random() < 0.4]
                       for k in ("a", "b")})


def test_isomorphism_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(0, 7)
        G = _random_graph(rng, n)
        respect_labels = trial % 2 == 1
        if respect_labels:
            G = _random_labels(rng, G)
        perm = list(range(n))
        rng.shuffle(perm)
        H = _relabel(G, perm)
        if rng.random() < 0.5:
            H = _toggle_two_pairs(rng, H)
        if respect_labels and n and rng.random() < 0.3:
            # move one vertex into or out of a label set
            v = rng.randrange(n)
            H = LabeledGraph.build(n, H.edges, {**H.labels,
                                                "a": H.labels["a"] ^ {v}})
        match = (lambda a, b: a["sig"] == b["sig"]) if respect_labels else None
        want = nx.is_isomorphic(_nx(G), _nx(H), node_match=match)
        iso = is_isomorphic(G, H, respect_labels=respect_labels)
        assert (iso is not None) == want, (G, H, respect_labels)
        if iso is not None:
            _assert_embedding(G, H, iso, respect_labels)
            assert sorted(iso.values()) == list(range(H.n))
        seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_induced_subgraph_agrees_with_networkx():
    pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(12)
    seen = {True: 0, False: 0}
    for trial in range(400):
        G = _random_graph(rng, rng.randint(0, 7))
        if trial % 2 and G.n:
            # a relabeled induced subgraph of G, so the answer is often yes
            keep = [v for v in range(G.n) if rng.random() < 0.6]
            perm = list(range(len(keep)))
            rng.shuffle(perm)
            pos = {v: i for i, v in enumerate(keep)}
            H = LabeledGraph.build(
                len(keep), [(perm[pos[u]], perm[pos[v]])
                            for (u, v) in G.edges if u in pos and v in pos])
            H = _toggle_two_pairs(rng, H) if rng.random() < 0.3 else H
        else:
            H = _random_graph(rng, rng.randint(0, 5))
        want = GraphMatcher(_nx(G), _nx(H)).subgraph_is_isomorphic()
        m = is_induced_subgraph_of(H, G)
        assert (m is not None) == want, (H, G)
        if m is not None:
            _assert_embedding(H, G, m)
        seen[want] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("n", [6, 7])
def test_labeled_isomorphism_is_one_search(n):
    # the label signatures narrow the domains of the one search, so a
    # relabeled Z_n needs about one expansion per vertex
    Z = build_Zn(n, with_labels=True)
    perm = list(range(Z.n))
    random.Random(n).shuffle(perm)
    Z2 = _relabel(Z, perm)
    iso = is_isomorphic(Z, Z2, respect_labels=True, budget=1000)
    assert iso is not None
    _assert_embedding(Z, Z2, iso, respect_labels=True)


def _set_pattern_order(H):
    """The pattern order as it was computed over adjacency sets: the
    oracle for the bitmask version."""
    deg = H.degree_sequence()
    adj = H.adjacency()
    order = []
    placed = set()
    remaining = set(range(H.n))
    while remaining:
        frontier = {v for v in remaining if adj[v] & placed} or remaining
        v = max(frontier, key=lambda v: (deg[v], -v))
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    return order


def test_pattern_order_equals_the_set_based_order():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(0, 12)
        p = rng.random()
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < p])
        assert _pattern_order(G.adjacency_masks()) == _set_pattern_order(G), G


def test_isomorphism_classes_keep_the_first_of_each_class():
    rng = random.Random(14)
    graphs = []
    for _ in range(60):
        G = _random_graph(rng, rng.randint(0, 5))
        perm = list(range(G.n))
        rng.shuffle(perm)
        graphs += [G, _relabel(G, perm)]
    rng.shuffle(graphs)
    kept = list(isomorphism_classes(graphs))
    firsts = []
    for G in graphs:
        if all(is_isomorphic(G, K) is None for K in firsts):
            firsts.append(G)
    assert [id(G) for G in kept] == [id(G) for G in firsts]


def test_rows_of_a_kept_graph_are_skipped_unsearched(monkeypatch):
    # equal rows are the same graph, whatever their names and labels
    first = LabeledGraph.build(4, [(0, 1), (1, 2)], labels={"a": [3]})
    same = LabeledGraph.build(4, [(1, 2), (0, 1)], names={3: "d"})
    other = LabeledGraph.build(4, [(2, 3), (1, 2)])  # isomorphic, moved
    assert same._adjacency_rows() == first._adjacency_rows()
    made, searched = [], []
    record, isomorphism = search._Graph, search._isomorphism
    monkeypatch.setattr(search, "_Graph",
                        lambda adj: made.append(adj) or record(adj))
    monkeypatch.setattr(search, "_isomorphism", lambda *args: searched.append(
        args) or isomorphism(*args))
    kept = list(isomorphism_classes([first, same, other, same, first]))
    assert [id(G) for G in kept] == [id(first)]
    assert made == [first._adjacency_rows(), other._adjacency_rows()]
    assert len(searched) == 1


def test_rows_of_a_duplicate_are_skipped_unsearched(monkeypatch):
    # other is first under another numbering, so it is searched once;
    # other2 has the rows of other and is not searched again
    first = LabeledGraph.build(4, [(0, 1), (1, 2)])
    other = LabeledGraph.build(4, [(2, 3), (1, 2)])
    other2 = LabeledGraph.build(4, [(1, 2), (2, 3)], names={0: "a"})
    assert other2._adjacency_rows() == other._adjacency_rows()
    made, searched = [], []
    record, isomorphism = search._Graph, search._isomorphism
    monkeypatch.setattr(search, "_Graph",
                        lambda adj: made.append(adj) or record(adj))
    monkeypatch.setattr(search, "_isomorphism", lambda *args: searched.append(
        args) or isomorphism(*args))
    kept = list(isomorphism_classes([first, other, other2]))
    assert [id(G) for G in kept] == [id(first)]
    assert made == [first._adjacency_rows(), other._adjacency_rows()]
    assert len(searched) == 1


def test_classes_of_a_stream_whose_vertex_count_goes_back_and_forth():
    # the rows met are forgotten when the vertex count changes, so rows
    # met before another size are searched again, and still fall in the
    # class of the first graph of theirs
    rng = random.Random(17)
    graphs = []
    for _ in range(30):
        for n in (3, 4, 3, 4):
            G = _random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [G, LabeledGraph.build(n, G.edges), _relabel(G, perm)]
    kept = list(isomorphism_classes(graphs))
    firsts = []
    for G in graphs:
        if all(is_isomorphic(G, K) is None for K in firsts):
            firsts.append(G)
    assert [id(G) for G in kept] == [id(G) for G in firsts]
    assert [G.n for G in kept] != sorted(G.n for G in kept)


def test_records_from_rows_equal_records_from_the_graph():
    rng = random.Random(15)
    for _ in range(40):
        G = _random_graph(rng, rng.randint(0, 6))
        G = G.with_labels({"a": [v for v in range(G.n) if rng.random() < 0.5],
                           "b": []})
        for H in apply_all_params(builtin_induced(), G):
            # the rows that the census made, against a fresh graph whose
            # rows are made from its edges
            fresh = LabeledGraph.build(H.n, H.edges, H.labels)
            for labels, respect in ((None, False), (H.labels, True)):
                a, b = _Graph(H._adj, labels), _record(fresh, respect)
                assert (a.n, a.adj, a.key, a.invariant, a.order) == \
                    (b.n, b.adj, b.key, b.invariant, b.order), H


def test_only_kept_records_sort_their_vertices(monkeypatch):
    rng = random.Random(16)
    graphs = []
    for _ in range(80):
        G = _random_graph(rng, rng.randint(0, 5))
        perm = list(range(G.n))
        rng.shuffle(perm)
        graphs += [G, _relabel(G, perm), _relabel(G, perm[::-1])]
    rng.shuffle(graphs)
    seen = []  # the rows of each record that sorts its vertices

    def recorded(adj):
        seen.append(adj)
        return _pattern_order(adj)

    monkeypatch.setattr(search, "_pattern_order", recorded)
    kept = list(isomorphism_classes(graphs))
    assert len(kept) < len(graphs) // 2
    kept_rows = {id(K._adj) for K in kept}
    assert len({id(adj) for adj in seen}) == len(seen)
    assert {id(adj) for adj in seen} <= kept_rows
    # in a census the host's automorphisms add one record: the host's
    for G in (grid(3, 3), make_Tn(3)):
        seen.clear()
        outputs = list(apply_all_params(builtin_induced(), G, dedupe=True))
        assert len(seen) <= len(outputs) + 1
        assert set(seen) <= {H._adj for H in outputs}


def _brute_automorphisms(G):
    """Every permutation of V(G) that keeps the edges and each label set."""
    return sorted(
        list(perm) for perm in itertools.permutations(range(G.n))
        if {tuple(sorted((perm[u], perm[v]))) for u, v in G.edges} == G.edges
        and all(frozenset(perm[v] for v in vs) == vs
                for vs in G.labels.values()))


def test_automorphisms_agree_with_all_permutations():
    rng = random.Random(15)
    orders = set()
    for trial in range(150):
        n = rng.randint(0, 6)
        p = rng.random()
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < p])
        if trial % 2:
            G = G.with_labels({k: [v for v in range(n) if rng.random() < 0.3]
                               for k in ("a", "b")})
        auts = _automorphisms(G)
        assert sorted(auts) == _brute_automorphisms(G), G
        orders.add(len(auts))
    assert max(orders) >= 48  # some complete or edgeless graphs came up


def test_automorphism_group_orders():
    assert len(_automorphisms(grid(3, 3))) == 8
    assert len(_automorphisms(make_Tn(3))) == 16
    corner = grid(3, 3).with_labels({"c": [0]})  # only the diagonal flip
    assert sorted(_automorphisms(corner)) == [
        list(range(9)), [0, 3, 6, 1, 4, 7, 2, 5, 8]]
    assert len(_automorphisms(corner, respect_labels=False)) == 8


def test_automorphisms_fall_back_to_the_identity_past_the_budget():
    # 10! automorphisms take millions of expansions to list
    assert _automorphisms(LabeledGraph.build(10, [])) == [list(range(10))]


def test_mask_maps_send_each_vertex_to_its_image():
    rng = random.Random(47)
    for n in range(1, 21):
        perm = list(range(n))
        rng.shuffle(perm)
        image = _mask_map(perm)
        for _ in range(30):
            mask = rng.getrandbits(n)
            assert image(mask) == sum(1 << perm[v] for v in range(n)
                                      if mask >> v & 1)


# ---------------------------------------------------------------------------
# The search core against the recursive backtracker it replaced
# ---------------------------------------------------------------------------

def _recursive_search(P, T, domains, budget, visit=None):
    """The forward-checking search as one recursive call per pattern
    vertex: the oracle for ``search._search``, which loops instead."""
    if not all(domains):
        return None
    hadj, gadj, order = P.adj, T.adj, P.order
    gall = (1 << T.n) - 1
    expanded = 0
    mapping = {}

    def backtrack(pos, used, doms):
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
            non_nbrs = gall & ~gadj[w] & ~w_bit
            new_doms = list(doms)
            for later_pos in range(pos + 1, len(order)):
                new_doms[later_pos] &= (gadj[w]
                                        if (hadj[v] >> order[later_pos]) & 1
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


def _outcome(run):
    """What run() gives: its map as (vertex, image) pairs in key order,
    or the expansion count at which its budget ran out."""
    try:
        m = run()
    except BudgetExhausted as exc:
        return "budget", exc.expanded
    return "map", None if m is None else list(m.items())


_LOOP = search._search


def _both_cores(monkeypatch, run):
    """The outcome of run() and the maps it visits, under the search core
    and under the recursive oracle."""
    out = []
    for core in (_LOOP, _recursive_search):
        monkeypatch.setattr(search, "_search", core)
        visited = []
        out.append((_outcome(lambda: run(visited.append)), visited))
    return out


def test_the_search_loop_agrees_with_the_recursion(monkeypatch):
    rng = random.Random(61)
    cases = 0
    for _ in range(200):
        n = rng.randint(0, 9)
        p = rng.random()
        G = LabeledGraph.build(n, [e for e in itertools.combinations(
            range(n), 2) if rng.random() < p])
        if rng.random() < 0.5:
            G = _random_labels(rng, G)
        H = _relabel(G, rng.sample(range(n), n))
        if rng.random() < 0.5:
            H = _toggle_two_pairs(rng, H)
        host = LabeledGraph.build(
            n + 2, [e for e in itertools.combinations(range(n + 2), 2)
                    if rng.random() < p])
        for respect in (False, True):
            a, b = _record(G, respect), _record(H, respect)
            e, t = _record(G), _record(host)
            # a listing keeps a budget: 9! automorphisms are too many
            runs = [lambda visit: search._isomorphism(a, b, None),
                    lambda visit: search._isomorphism(a, a, 2000, visit),
                    lambda visit: search._embedding(e, t, None)]
            for budget in (1, 2, 5, 20):
                runs += [
                    lambda visit, k=budget: search._isomorphism(a, b, k),
                    lambda visit, k=budget: search._isomorphism(a, a, k,
                                                                visit),
                    lambda visit, k=budget: search._embedding(e, t, k)]
            for run in runs:
                new, old = _both_cores(monkeypatch, run)
                assert new == old, (G, H, respect)
                cases += 1
    assert cases == 200 * 2 * 15


def test_the_search_loop_visits_every_embedding_in_order(monkeypatch):
    rng = random.Random(62)
    for _ in range(100):
        P = _record(_random_graph(rng, rng.randint(1, 5)))
        T = _record(_random_graph(rng, rng.randint(5, 8)))
        domains = [(1 << T.n) - 1] * P.n

        def run(visit):
            return search._search(P, T, domains, None, visit)
        (new, new_maps), (old, old_maps) = _both_cores(monkeypatch, run)
        assert new == old == ("map", None)
        assert new_maps == old_maps
        for m in new_maps:
            assert list(m) == list(range(P.n))


def test_a_deep_isomorphism_takes_no_recursion():
    # one recursive call per vertex would pass Python's recursion limit
    G, H = grid(40, 40), grid(40, 40)
    m = is_isomorphic(G, H)
    assert m is not None and sorted(m) == list(range(G.n))
    assert sorted(m.values()) == list(range(H.n))
    # a bijection that maps the edges onto the edges of a graph with as
    # many edges also maps the non-edges onto the non-edges
    assert len(G.edges) == len(H.edges)
    assert {tuple(sorted((m[u], m[v]))) for u, v in G.edges} == H.edges
