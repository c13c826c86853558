import json

import pytest

from msograph.graphs import (GraphError, LabeledGraph, SubdivisionPlan,
                             antichain_member_In, branch_vertices,
                             contract_subdivision, grid,
                             induced_subgraph, make_Tn, mn, subdivide,
                             tri_corner_grid, uniform_subdivide_utg,
                             upper_tri_grid)


def test_build_canonicalizes_edges():
    G = LabeledGraph.build(3, [(2, 0), (0, 2), (1, 0)])
    assert G.edges == frozenset({(0, 2), (0, 1)})


def test_loops_rejected():
    with pytest.raises(GraphError):
        LabeledGraph.build(2, [(1, 1)])


def test_names_outside_the_vertices_rejected():
    with pytest.raises(GraphError, match="out-of-range vertex 7"):
        LabeledGraph.from_json(
            '{"n": 2, "edges": [[0,1]], "names": {"7": "ghost"}}')
    with pytest.raises(GraphError):
        LabeledGraph.build(2, [], names={-1: "ghost"})


def test_json_round_trip():
    G = grid(2, 3).with_labels({"mark": [0, 5]})
    H = LabeledGraph.from_json(G.to_json())
    assert H == G
    # a graph compares by its fields, and has no hash
    assert H is not G and H != G.with_labels({"mark": [0]}) and H != grid(3, 2)
    assert (H == (G.n, G.edges, G.labels, G.names)) is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(H)
    with pytest.raises(AttributeError):
        H.n = 7


def test_with_labels_checks_only_the_added_labels():
    G = grid(2, 3).with_labels({"mark": [0, 5]})
    H = G.with_labels({"more": [1], "mark": [2]})
    assert H == LabeledGraph.build(
        6, G.edges, {"mark": [2], "more": [1]}, G.names)
    assert G.labels == {"mark": frozenset({0, 5})}
    for bad in ([6], [-1]):
        with pytest.raises(GraphError):
            G.with_labels({"extra": bad})


def test_adjacency_masks_pass_to_copies_and_stay_unchanged():
    G = grid(2, 3)
    masks = G.adjacency_masks()
    masks[0] = 0
    H = G.with_labels({"mark": [0]})
    assert H.adjacency_masks() == G.adjacency_masks() == \
        [0b1010, 0b10101, 0b100010, 0b10001, 0b101010, 0b10100]


def test_dot_colours_labeled_vertices():
    G = grid(2, 2).with_labels({"mark": [0]})
    assert "fillcolor" in G.to_dot()
    assert "fillcolor" not in grid(2, 2).to_dot()


def test_grid_counts():
    G = grid(3, 4)
    assert G.n == 12
    assert len(G.edges) == 3 * 3 + 2 * 4  # horizontal + vertical


def test_upper_tri_grid_counts():
    U = upper_tri_grid(3)
    assert U.n == 6
    # above-diagonal part of the 3x3 grid
    assert len(U.edges) == 3 + 3  # (1,1)-(1,2)-(1,3),(2,2)-(2,3) rows + columns


def test_grid_embeds_in_utg():
    from msograph.search import is_induced_subgraph_of
    assert is_induced_subgraph_of(grid(2, 2), upper_tri_grid(4)) is not None


def test_subdivide_and_contract_round_trip():
    G = make_Tn(3)
    H = subdivide(G, 3)
    back = contract_subdivision(H, range(G.n))
    assert back.edges == G.edges


def test_subdivide_t1_is_identity():
    G = grid(2, 2)
    assert subdivide(G, 1) is G


def test_uniform_subdivision_contract():
    plan = SubdivisionPlan(4, {1: 3, 2: 5})
    H, originals = uniform_subdivide_utg(plan)
    from msograph.search import is_isomorphic
    assert is_isomorphic(contract_subdivision(H, originals),
                         upper_tri_grid(4)) is not None


def test_contract_requires_degree_two_interior():
    T = make_Tn(3)  # 3-regular
    with pytest.raises(GraphError):
        contract_subdivision(T, [0])  # non-originals have degree 3


def test_make_Tn_three_regular_and_small():
    for n in range(3, 7):
        T = make_Tn(n)
        assert set(T.degree_sequence()) == {3}
        assert T.n < 4 * n * n


def test_branch_vertices_and_mn():
    T = make_Tn(3)
    H = subdivide(T, 4)
    assert len(branch_vertices(H)) == T.n
    assert mn(H) == 4 * mn(T)


def test_branch_vertices_rejects_other_degrees():
    with pytest.raises(GraphError):
        branch_vertices(grid(3, 3))  # has a degree-4 center


def test_antichain_members_pairwise_incomparable():
    from msograph.search import is_antichain
    ok, witness = is_antichain([antichain_member_In(i) for i in range(1, 5)])
    assert ok, witness


def test_tri_corner_grids_antichain():
    from msograph.search import is_antichain
    ok, witness = is_antichain([tri_corner_grid(i) for i in range(3, 6)])
    assert ok, witness


def test_induced_subgraph_keeps_names():
    G = grid(2, 2)
    H = induced_subgraph(G, [1, 3])
    assert H.n == 2
    assert {H.name_of(0), H.name_of(1)} == {G.name_of(1), G.name_of(3)}
