import hashlib
import itertools
import json
import random

import pytest

from msograph import widths
from msograph.graphs import LabeledGraph, grid, subdivide, upper_tri_grid
from msograph.search import BudgetExhausted, _automorphisms, _mask_map
from msograph.widths import (KExpression, SizeCapExceeded, TreeDecomposition,
                             WidthError, cliquewidth_exact,
                             decomposition_violation,
                             extend_decomposition_for_subdivision,
                             treewidth_exact, verify_k_expression,
                             verify_tree_decomposition)

K4 = LabeledGraph.build(4, [e for e in itertools.combinations(range(4), 2)])
TREE = LabeledGraph.build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
PATH4 = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3)])


def test_single_bag_decomposition_is_valid():
    td = TreeDecomposition.build([range(4)], [])
    assert verify_tree_decomposition(K4, td)
    assert td.width == 3
    # a decomposition compares and hashes by its fields
    same = TreeDecomposition((frozenset(range(4)),), frozenset())
    assert td == same and hash(td) == hash(same) and {td: 1}[same] == 1
    assert td != TreeDecomposition.build([range(3)], [])
    assert repr(same) == ("TreeDecomposition(bags=(frozenset({0, 1, 2, 3}),), "
                          "tree_edges=frozenset())")


def test_path_decomposition_of_a_path():
    td = TreeDecomposition.build([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    assert verify_tree_decomposition(PATH4, td)
    assert td.width == 1


def test_violations_are_reported():
    td = TreeDecomposition.build([{0, 1}, {2, 3}], [(0, 1)])
    msg = decomposition_violation(PATH4, td)
    assert msg is not None and "(1,2)" in msg
    # disconnected occurrence of a vertex
    td2 = TreeDecomposition.build([{0, 1}, {2}, {1, 2, 3}],
                                  [(0, 1), (1, 2)])
    assert "disconnected" in (decomposition_violation(PATH4, td2) or "")


def test_bag_vertices_outside_the_graph_are_violations():
    td = TreeDecomposition.build([[0, 1, 7, -3]], [])
    assert decomposition_violation(grid(1, 2), td) == (
        "bag 0 holds -3, which is not a vertex of G")
    td = TreeDecomposition.build([{0, 1}, {1, 2}], [(0, 1)])
    assert decomposition_violation(grid(1, 2), td) == (
        "bag 1 holds 2, which is not a vertex of G")
    assert not verify_tree_decomposition(grid(1, 2), td)


def test_loop_tree_edges_are_called_loops():
    with pytest.raises(WidthError, match=r"tree edge \(0,0\) is a loop"):
        TreeDecomposition.build([{0, 1}], [(0, 0)])
    with pytest.raises(WidthError, match="out of node range"):
        TreeDecomposition.build([{0, 1}], [(0, 1)])


def test_treewidth_known_values():
    assert treewidth_exact(TREE)[0] == 1
    assert treewidth_exact(K4)[0] == 3
    assert treewidth_exact(grid(3, 3))[0] == 3
    assert treewidth_exact(grid(2, 4))[0] == 2


def test_treewidth_witness_matches():
    for G in (TREE, K4, grid(3, 3), upper_tri_grid(4)):
        w, td = treewidth_exact(G)
        assert verify_tree_decomposition(G, td)
        assert td.width == w


def test_treewidth_cap():
    with pytest.raises(SizeCapExceeded):
        treewidth_exact(grid(3, 7))


def test_subdivision_extension():
    w, td = treewidth_exact(K4)
    for t in (1, 2, 3):
        td2 = extend_decomposition_for_subdivision(K4, td, t)
        assert verify_tree_decomposition(subdivide(K4, t), td2)
        assert td2.width <= max(w, 3)
    w, td = treewidth_exact(TREE)
    td3 = extend_decomposition_for_subdivision(TREE, td, 3)
    assert td3.width <= 3


def test_subdivision_extension_rejects_bad_input():
    bad = TreeDecomposition.build([{0, 1}], [])
    with pytest.raises(WidthError):
        extend_decomposition_for_subdivision(K4, bad, 2)


def test_kexpression_hand_built():
    # standard 2-label construction of K_3
    e = KExpression(2, ("relabel", 2, 1,
                        ("join", 1, 2,
                         ("union",
                          ("relabel", 2, 1,
                           ("join", 1, 2,
                            ("union", ("leaf", 1), ("leaf", 2)))),
                          ("leaf", 2)))))
    K3 = LabeledGraph.build(3, [(0, 1), (0, 2), (1, 2)])
    assert verify_k_expression(K3, e)
    assert not verify_k_expression(PATH4, e)
    # an expression compares and hashes by its fields
    same = KExpression.from_json(e.to_json())
    assert same == e and hash(same) == hash(e) and {e: 1}[same] == 1
    assert e != KExpression(3, e.root) and e != KExpression(2, ("leaf", 1))
    assert repr(KExpression(1, ("leaf", 1))) == \
        "KExpression(k=1, root=('leaf', 1))"


def test_kexpression_malformed():
    with pytest.raises(WidthError):
        KExpression(2, ("join", 1, 1, ("leaf", 1))).evaluate()
    with pytest.raises(WidthError):
        KExpression(2, ("leaf", 3)).evaluate()


def test_kexpression_nodes_need_their_number_of_fields():
    for root, node in ((["union", ["leaf", 1]], "('union', ('leaf', 1))"),
                       (["join", 1, 2], "('join', 1, 2)"),
                       (["leaf"], "('leaf',)"),
                       (["relabel", 1, 2, ["leaf", 1], 3],
                        "('relabel', 1, 2, ('leaf', 1), 3)")):
        e = KExpression.from_json(json.dumps(
            {"type": "k-expression", "k": 2, "root": root}))
        with pytest.raises(WidthError) as exc:
            e.evaluate()
        assert node in str(exc.value), str(exc.value)


def test_kexpression_labels_are_ints():
    for label in (True, 1.0, "1"):
        with pytest.raises(WidthError, match="label"):
            KExpression(2, ("leaf", label)).evaluate()
        with pytest.raises(WidthError, match="label"):
            KExpression(2, ("relabel", label, 2, ("leaf", 1))).evaluate()
    K1 = LabeledGraph.build(1, [])
    assert verify_k_expression(K1, KExpression(2, ("leaf", 1)))
    e = KExpression.from_json('{"type": "k-expression", "k": 1, '
                              '"root": ["leaf", true]}')
    with pytest.raises(WidthError, match="label True"):
        verify_k_expression(K1, e)


def test_cliquewidth_known_values():
    vals = {
        "K1": (LabeledGraph.build(1, []), 1),
        "K3": (LabeledGraph.build(3, [(0, 1), (0, 2), (1, 2)]), 2),
        "C5": (LabeledGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                      (0, 4)]), 3),
        "C4": (grid(2, 2), 2),
        "P4": (PATH4, 3),
        "K6": (LabeledGraph.build(
            6, [e for e in itertools.combinations(range(6), 2)]), 2),
    }
    for name, (G, want) in vals.items():
        got, e = cliquewidth_exact(G)
        assert got == want, name
        assert verify_k_expression(G, e), name


def test_cliquewidth_cap_and_budget():
    with pytest.raises(SizeCapExceeded):
        cliquewidth_exact(grid(3, 3))  # 9 vertices over the default cap
    with pytest.raises(BudgetExhausted) as exc:
        cliquewidth_exact(grid(2, 4), budget=50)
    assert exc.value.expanded == 50 and type(exc.value.expanded) is int
    msg = str(exc.value)
    assert msg.count("budget") == 1 and msg.count("50") == 1, msg


def _plain(G, cap=8, budget=2_000_000):
    """The clique-width search with the identity alone: every state its
    own orbit."""
    return widths._cliquewidth(G, cap, budget, [list(range(G.n))])


def test_cliquewidth_budget_counts_closed_groupings():
    # grid(3,3) at cap 10, from k = 3 up to its goal state, makes 6,596
    # union steps that close 5,146 groupings with a state per state, and
    # 1,520 that close 1,440 with one per orbit; each step costs one unit
    # and each grouping one more
    assert _plain(grid(3, 3), cap=10, budget=11_742)[0] == 4
    with pytest.raises(BudgetExhausted):
        _plain(grid(3, 3), cap=10, budget=11_741)
    assert cliquewidth_exact(grid(3, 3), cap=10, budget=2_960)[0] == 4
    with pytest.raises(BudgetExhausted):
        cliquewidth_exact(grid(3, 3), cap=10, budget=2_959)


def test_the_lower_bound_is_the_p4_test():
    rng = random.Random(41)
    for _ in range(300):
        G = _random_graph(rng, rng.randrange(1, 8), rng.random())
        assert widths._has_induced_p4(G.adjacency_masks()) == \
            _has_induced_p4(G), sorted(G.edges)


def test_the_search_below_the_lower_bound_fails(atlas_widths):
    # Courcelle & Olariu (2000) let the search start at 3 for a graph
    # with an induced P4, and at 2 for one with an edge; the search at
    # the width below finds nothing on the atlas graphs of 1-6 vertices
    for G, cw, _, _ in atlas_widths:
        adj = G.adjacency_masks()
        low = 1 if not any(adj) else 3 if _has_induced_p4(G) else 2
        assert cw >= low
        if low > 1:
            maps = [_mask_map(list(range(G.n)))]
            assert widths._grow(adj, low - 1, maps, {}, 10 ** 9, 0)[0] is None


def _closure(adj, k):
    """Every state of width k, by brute force: the leaves, then every
    union through ``_unions`` of two disjoint states, in both orders,
    until nothing new appears."""
    full = (1 << len(adj)) - 1
    states = {(1 << v, (1 << v,)) for v in range(len(adj))}
    while True:
        new = set()
        for (mA, bA), (mB, bB) in itertools.product(states, repeat=2):
            if mA & mB:
                continue
            done, _ = widths._unions(widths._summaries(adj, bA), mA,
                                     widths._summaries(adj, bB), mB,
                                     full & ~(mA | mB), k)
            new.update((mA | mB, tuple(sorted(Q))) for Q, _ in done)
        if new <= states:
            return states
        states |= new


def test_the_search_below_the_width_reaches_every_orbit():
    # a failed search at k keeps one state of every orbit of the states
    # of width k: with the identity alone, every state
    rng = random.Random(47)
    cases = 0
    for _ in range(40):
        G = _random_graph(rng, rng.randrange(3, 7), rng.random())
        adj = G.adjacency_masks()
        identity = [_mask_map(list(range(G.n)))]
        # sorted, so the identity comes first, as _grow needs
        group = [_mask_map(p) for p in
                 sorted(_automorphisms(G, respect_labels=False))]
        for k in range(1, cliquewidth_exact(G)[0]):
            want = _closure(adj, k)
            for maps in (identity, group):
                prov = {}
                assert widths._grow(adj, k, maps, prov, 10 ** 9, 0)[0] is None
                assert {img for st in prov for img in widths._orbit(maps, st)
                        } == want, (sorted(G.edges), k)
            cases += 1
    assert cases == 48


def test_the_search_at_three_fails_on_seven_vertices(atlas_plain):
    # the seven-vertex atlas graphs whose width exceeds their P4 bound
    # all have width 4; the search at 3 finds nothing in each of them,
    # with the identity alone and with the whole group
    above = [(G, e.k) for G, e in atlas_plain
             if G.n == 7 and e.k > (3 if _has_induced_p4(G) else 2)]
    assert len(above) == 54 and {k for _, k in above} == {4}
    for G, _ in above:
        adj = G.adjacency_masks()
        for perms in ([list(range(7))],
                      sorted(_automorphisms(G, respect_labels=False))):
            maps = [_mask_map(p) for p in perms]
            assert widths._grow(adj, 3, maps, {}, 10 ** 9, 0)[0] is None


def _shuffled(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return LabeledGraph.build(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def test_shuffled_grids_keep_their_width():
    rng = random.Random(43)
    for G, cap in ((grid(2, 4), 8), (grid(3, 3), 10)):
        want = cliquewidth_exact(G, cap=cap)[0]
        for _ in range(3):
            H = _shuffled(G, rng)
            assert len(_automorphisms(H)) == len(_automorphisms(G)) > 1
            cw, e = cliquewidth_exact(H, cap=cap)
            assert cw == want and e.k == cw and verify_k_expression(H, e)


def _unions_brute(adj, blocksA, mA, blocksB, mB, outside, k):
    """Every grouping of the blocks into at most k groups, in the order
    ``_unions`` places them, kept when it leaves a live state and every
    join it needs is complete: checked vertex by vertex, without cuts."""
    blocks = blocksA + blocksB

    def assignments(i, used):
        if i == len(blocks):
            yield ()
            return
        for g in range(min(used + 1, k)):
            for rest in assignments(i + 1, max(used, g + 1)):
                yield (g,) + rest

    def verts(m):
        return [v for v in range(len(adj)) if m >> v & 1]

    def edge_between(P, R):
        return any(adj[u] >> v & 1 for u in verts(P) for v in verts(R))

    def complete(P, R):
        return all(adj[u] >> v & 1 for u in verts(P) for v in verts(R))

    out = []
    for a in assignments(0, 0):
        groups = [0] * (max(a) + 1)
        for b, g in zip(blocks, a):
            groups[g] |= b
        live = all(len({adj[v] & outside for v in verts(P)}) == 1
                   and not edge_between(P & mA, P & mB) for P in groups)
        joins = [(g, h) for g, h in itertools.combinations(range(len(groups)), 2)
                 if edge_between(groups[g] & mA, groups[h] & mB)
                 or edge_between(groups[g] & mB, groups[h] & mA)]
        if live and all(complete(groups[g], groups[h]) for g, h in joins):
            out.append((tuple(groups), joins))
    return out


def _unions_generator(adj, blocksA, mA, blocksB, mB, outside, k):
    """The union step as a generator that reads the blocks vertex by
    vertex: each complete grouping yields (groups, joins) and each cut
    yields None.  The oracle for ``widths._unions``."""
    blocks = []
    for b, other in [(b, mB) for b in blocksA] + [(b, mA) for b in blocksB]:
        near, common, m = 0, -1, b
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            near |= adj[v]
            common &= adj[v]
        blocks.append((b, adj[v] & outside, near & other, common))
    groups: list[int] = []
    sigs: list[int] = []
    cross: list[int] = []
    common: list[int] = []

    def incomplete(g: int) -> bool:
        cg, kg = cross[g], common[g]
        for h, gh in enumerate(groups):
            if h != g and cg & gh and kg & gh != gh:
                return True
        return False

    last = len(blocks)
    at = [-1] * last
    undo: list = [None] * last
    i = 0
    while i >= 0:
        if i == last:
            yield tuple(groups), [(ia, ib) for ia, ib
                                  in itertools.combinations(
                                      range(len(groups)), 2)
                                  if cross[ia] & groups[ib]]
            i -= 1
            continue
        b, sig, near, com = blocks[i]
        g = at[i]
        if g >= 0:
            if undo[i] is None:
                for stack in (groups, sigs, cross, common):
                    stack.pop()
            else:
                groups[g], cross[g], common[g] = undo[i]
        g += 1
        while g < len(groups) and (sigs[g] != sig or near & groups[g]):
            g += 1
        if g < len(groups):
            undo[i] = groups[g], cross[g], common[g]
            groups[g] |= b
            cross[g] |= near
            common[g] &= com
        elif g == len(groups) < k:
            undo[i] = None
            groups.append(b)
            sigs.append(sig)
            cross.append(near)
            common.append(com)
        else:
            at[i] = -1
            i -= 1
            continue
        at[i] = g
        if incomplete(g):
            yield None
        else:
            i += 1


def _recorded_unions(monkeypatch):
    """A sample of the union steps of seeded searches, with a state per
    state and with one per orbit, each as (adj, summA, mA, summB, mB,
    outside)."""
    calls = []

    def recording(*args):
        calls.append(args[:-1])
        return unions(*args)

    unions = widths._unions
    monkeypatch.setattr(widths, "_unions", recording)
    rng = random.Random(31)
    pairs = []
    for _ in range(12):
        calls.clear()
        G = _random_graph(rng, rng.randrange(3, 8), rng.choice((0.3, 0.5, 0.7)))
        _plain(G)
        cliquewidth_exact(G)
        adj = G.adjacency_masks()
        pairs += [(adj, *c) for c in rng.sample(calls, min(len(calls), 25))]
    monkeypatch.undo()
    assert len(pairs) > 200
    return pairs


def _blocks(summaries):
    return tuple(b for b, _, _ in summaries)


def test_unions_match_uncut_enumeration(monkeypatch):
    for adj, summA, mA, summB, mB, outside in _recorded_unions(monkeypatch):
        blocksA, blocksB = _blocks(summA), _blocks(summB)
        for k in range(1, 5):
            args = (adj, blocksA, mA, blocksB, mB, outside, k)
            got = widths._unions(summA, mA, summB, mB, outside, k)[0]
            assert got == _unions_brute(*args), args


def test_unions_match_the_generator(monkeypatch):
    for adj, summA, mA, summB, mB, outside in _recorded_unions(monkeypatch):
        blocksA, blocksB = _blocks(summA), _blocks(summB)
        for k in range(1, 5):
            old = list(_unions_generator(adj, blocksA, mA, blocksB, mB,
                                         outside, k))
            done, cuts = widths._unions(summA, mA, summB, mB, outside, k)
            assert done == [u for u in old if u is not None]
            assert cuts == old.count(None)


def test_block_summaries_hold_for_every_vertex(monkeypatch):
    # class-mates agree outside their state, so the OR of a block's rows,
    # cut to the vertices outside the state, is every vertex's row there
    for adj, summA, mA, summB, mB, outside in _recorded_unions(monkeypatch):
        for summ, m in ((summA, mA), (summB, mB)):
            assert summ == widths._summaries(adj, _blocks(summ))
            for b, near, _ in summ:
                for v in range(len(adj)):
                    if b >> v & 1:
                        assert adj[v] & ~m == near & ~m
    assert widths._summaries([0b10, 0b101, 0b10], (0b1, 0b101)) == (
        (0b1, 0b10, 0b10), (0b101, 0b10, 0b10))


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\n")
    return h.hexdigest()


def test_cliquewidth_expressions_are_pinned():
    # sha256 of to_json(), as the search on one last-in-first-out agenda
    # writes it, on the path with the identity alone
    assert _digest([_plain(grid(2, 4))[1].to_json()]) == (
        "b508643850be5b47fe221a75522fe5f04950adefdd02f4acfbe21d4ab6f38f46")
    assert _digest([_plain(grid(3, 3), cap=10)[1].to_json()]) == (
        "9a4973edee8bf109626749f4e18382b3975a547c1720633061a75940b8f62b73")
    # and as the search over orbits writes it
    assert _digest([cliquewidth_exact(grid(2, 4))[1].to_json()]) == (
        "1d9d26c4cfdacde382e5500d3c00abaf80cc9c8ff30bdbffb60c9cbfba6fbc39")
    assert _digest([cliquewidth_exact(grid(3, 3), cap=10)[1].to_json()]) == (
        "6ab78a4dde1ee161eb4ccae89309159cb4dbac2c64b5b7dd0485778b9e951562")


def test_monotone_under_induced_subgraphs():
    from msograph.graphs import induced_subgraph
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randrange(3, 7)
        G = LabeledGraph.build(
            n, [e for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.5])
        S = [v for v in range(n) if rng.random() < 0.7]
        if not S:
            continue
        H = induced_subgraph(G, S)
        assert treewidth_exact(H)[0] <= treewidth_exact(G)[0]
        assert cliquewidth_exact(H)[0] <= cliquewidth_exact(G)[0] \
            if H.n else True


def test_certificates_round_trip_json():
    w, td = treewidth_exact(K4)
    assert TreeDecomposition.from_json(td.to_json()) == td
    cw, e = cliquewidth_exact(PATH4)
    assert KExpression.from_json(e.to_json()) == e


def test_k_expression_json_text_and_depth():
    e = KExpression(2, ("join", 1, 2, ("union", ("leaf", 1), ("leaf", 2))))
    assert e.to_json() == (
        '{\n  "type": "k-expression",\n  "k": 2,\n  "root": [\n'
        '    "join",\n    1,\n    2,\n    [\n      "union",\n'
        '      [\n        "leaf",\n        1\n      ],\n'
        '      [\n        "leaf",\n        2\n      ]\n    ]\n  ]\n}')
    cw, e = cliquewidth_exact(grid(3, 3), cap=10)
    assert e.to_json() == json.dumps(
        {"type": "k-expression", "k": e.k, "root": e.root}, indent=2)
    root = ("leaf", 1)
    for _ in range(900):
        root = ("relabel", 1, 2, root)
    deep = KExpression(2, root)
    assert KExpression.from_json(deep.to_json()) == deep


# ---------------------------------------------------------------------------
# Width oracles: independent facts the exact searches must agree with
# ---------------------------------------------------------------------------

# Clique-width of every networkx atlas graph with 1-6 vertices, in atlas
# order, one string per vertex count.  Derived once from the search; the
# single 4 is the triangular prism.
CW_ATLAS = {
    1: "1",
    2: "12",
    3: "1222",
    4: "12222232222",
    5: "1222223222233222333322323222322222",
    6: ("1222223222223322322233332333323222232322333333332333322232233332"
        "2333333333333322232333333332323333333322323323332333323334222323"
        "3333323322223223232223222222"),
}


def _random_graph(rng, n, p):
    return LabeledGraph.build(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def _has_induced_p4(G):
    for a, b, c, d in itertools.permutations(G.vertices, 4):
        if (G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and
                not (G.has_edge(a, c) or G.has_edge(b, d) or G.has_edge(a, d))):
            return True
    return False


def _treewidth_brute(G):
    """Least over all elimination orders of the largest neighbourhood
    met when eliminating a vertex."""
    best = G.n - 1
    for order in itertools.permutations(G.vertices):
        nbrs = G.adjacency()
        width = 0
        for v in order:
            nb = nbrs[v]
            width = max(width, len(nb))
            for u in nb:
                nbrs[u] |= nb
                nbrs[u] -= {u, v}
        best = min(best, width)
    return best


def _is_forest(G):
    root = list(G.vertices)

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in G.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


@pytest.fixture(scope="module")
def atlas_widths():
    nx = pytest.importorskip("networkx")
    out = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 6:
            G = LabeledGraph.build(g.number_of_nodes(), list(g.edges()))
            out.append((G, *cliquewidth_exact(G), treewidth_exact(G)[0]))
    assert len(out) == 208
    return out


def test_atlas_cliquewidth_values(atlas_widths):
    got: dict[int, str] = {}
    for G, cw, _, _ in atlas_widths:
        got[G.n] = got.get(G.n, "") + str(cw)
    assert got == CW_ATLAS


def test_atlas_cw_at_most_2_iff_p4_free(atlas_widths):
    # Courcelle & Olariu (2000): the graphs of clique-width <= 2 are the
    # cographs, which are the P4-free graphs.
    for G, cw, _, _ in atlas_widths:
        assert (cw <= 2) == (not _has_induced_p4(G)), sorted(G.edges)


def test_atlas_certificates_verify(atlas_widths):
    for G, cw, e, _ in atlas_widths:
        assert e.k == cw and verify_k_expression(G, e), sorted(G.edges)


@pytest.fixture(scope="module")
def atlas_plain():
    """(graph, k-expression) of the search with the identity alone for
    every atlas graph with 1-7 vertices, in atlas order."""
    nx = pytest.importorskip("networkx")
    out = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 7:
            G = LabeledGraph.build(g.number_of_nodes(), list(g.edges()))
            out.append((G, _plain(G)[1]))
    assert len(out) == 1252
    return out


def test_atlas_expressions_are_pinned(atlas_plain):
    # sha256 of to_json() for every atlas graph with 1-7 vertices, in
    # atlas order, as the search on one last-in-first-out agenda writes
    # them; most have a nontrivial group, so only the identity alone keeps
    # them
    texts = [e.to_json() for _, e in atlas_plain]
    assert _digest(texts) == (
        "653086f9bead999b2322ddd3c62f7cc3ff1628f7cc7a98628830b8b6ebf8bc58")


def test_atlas_orbit_search_agrees(atlas_widths, atlas_plain):
    # the widths of the search over orbits equal those of the plain one;
    # the graphs of 1-6 vertices come from atlas_widths
    small = len(atlas_widths)
    for (G, cw, _, _), (H, plain) in zip(atlas_widths, atlas_plain):
        assert G == H and cw == plain.k, sorted(G.edges)
    nontrivial = 0
    for G, plain in atlas_plain[small:]:
        nontrivial += len(_automorphisms(G)) > 1
        cw, e = cliquewidth_exact(G)
        assert cw == e.k == plain.k and verify_k_expression(G, e), \
            sorted(G.edges)
    assert nontrivial == 890


def test_atlas_cw_within_corneil_rotics_bound(atlas_widths):
    # Corneil & Rotics (2005): cw <= 3 * 2^(tw-1)
    for G, cw, _, tw in atlas_widths:
        assert tw < 1 or cw <= 3 * 2 ** (tw - 1), sorted(G.edges)


def test_treewidth_matches_brute_force_and_forests():
    rng = random.Random(2027)
    forests = 0
    for _ in range(24):
        G = _random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.4, 0.6)))
        tw, _ = treewidth_exact(G)
        assert tw == _treewidth_brute(G), sorted(G.edges)
        assert (tw <= 1) == _is_forest(G), sorted(G.edges)
        forests += _is_forest(G)
    assert 0 < forests < 24


def _reach(adj, v, through):
    """The vertices outside ``through`` that v reaches by paths whose
    interior lies inside ``through``: its neighbours once ``through`` is
    eliminated, found without an elimination graph."""
    seen, frontier, out = 1 << v, adj[v], 0
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


def _unpruned_table(G):
    """The treewidth recurrence with no bound, every vertex of every
    prefix tried: for each prefix, the least over its orders of the
    most neighbours a vertex has when it is eliminated (-1 when empty)."""
    n = G.n
    adj = G.adjacency_masks()
    full = (1 << n) - 1
    tw = [n + 1] * (full + 1)
    tw[0] = -1
    # every subset of a mask is a smaller number, so it comes first
    for mask in range(1, full + 1):
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mask & ~(1 << v)
            tw[mask] = min(tw[mask],
                           max(tw[rest], _reach(adj, v, rest).bit_count()))
    return tw


def _pruning_corpus():
    rng = random.Random(1012)
    graphs = [_random_graph(rng, rng.randrange(1, 13),
                            rng.choice((0.15, 0.3, 0.5, 0.7)))
              for _ in range(300)]
    return graphs + [grid(3, 4), grid(2, 6)]


@pytest.fixture(scope="module")
def unpruned_tables():
    return [(G, _unpruned_table(G)) for G in _pruning_corpus()]


def test_pruned_treewidth_matches_the_unpruned_recurrence(unpruned_tables):
    # the decomposition is that of the first order the search finds, so
    # only the widths are compared; each decomposition must verify
    for G, table in unpruned_tables:
        tw, td = treewidth_exact(G)
        assert tw == table[-1], sorted(G.edges)
        assert verify_tree_decomposition(G, td) and td.width == tw


def test_the_search_below_the_treewidth_is_exhaustive(unpruned_tables):
    # at k = tw - 1 the search reaches exactly the prefixes the
    # recurrence gives at most k, never the full mask; at k = tw it
    # reaches the full mask
    for G, table in unpruned_tables:
        tw, adj, full = table[-1], G.adjacency_masks(), len(table) - 1
        assert full in widths._prefixes_within(adj, tw)
        reached = widths._prefixes_within(adj, tw - 1)
        assert sorted(reached) == [
            p for p in range(full + 1) if table[p] <= tw - 1]
        assert full not in reached


def test_treewidth_of_grids():
    for n in range(1, 21):
        for m in range(1, 20 // n + 1):
            if n * m >= 2:
                tw, td = treewidth_exact(grid(n, m))
                assert tw == min(n, m), (n, m)
                assert verify_tree_decomposition(grid(n, m), td)
                assert td.width == tw


def test_treewidth_lies_between_degeneracy_and_greedy_bound():
    rng = random.Random(2020)
    for _ in range(30):
        G = _random_graph(rng, rng.randrange(13, 21),
                          rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)))
        adj = G.adjacency_masks()
        tw, td = treewidth_exact(G)
        assert widths._elimination_bound(adj, fill=False)[0] <= tw
        assert tw <= widths._elimination_bound(adj)[0]
        assert verify_tree_decomposition(G, td) and td.width == tw


def test_elimination_bound_is_an_upper_bound():
    for G in _pruning_corpus():
        bound = widths._elimination_bound(G.adjacency_masks())[0]
        assert bound >= treewidth_exact(G)[0], sorted(G.edges)


def test_elimination_bound_is_exact_on_paths_cycles_and_trees():
    rng = random.Random(5)
    for n in range(1, 13):
        path = LabeledGraph.build(n, [(i, i + 1) for i in range(n - 1)])
        tree = LabeledGraph.build(n, [(rng.randrange(i), i)
                                      for i in range(1, n)])
        graphs = [path, tree]
        if n >= 3:
            graphs.append(LabeledGraph.build(
                n, [(i, (i + 1) % n) for i in range(n)]))
        for G in graphs:
            bound = widths._elimination_bound(G.adjacency_masks())[0]
            assert bound == treewidth_exact(G)[0], sorted(G.edges)
