"""Unit tests for the plain Graph structure and its traversals."""

import random

import pytest

from repro.core.graph import Graph, GraphError


def path_graph(n: int) -> Graph:
    return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(nodes=range(n), edges=[(i, (i + 1) % n) for i in range(n)])


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_nodes_and_edges(self):
        g = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 1
        assert g.has_edge(2, 1)

    def test_weighted_nodes_mapping(self):
        g = Graph(nodes={"a": 2.0, "b": 3.0})
        assert g.node_weight("a") == 2.0

    def test_add_edge_creates_nodes(self):
        g = Graph(edges=[("x", "y")])
        assert "x" in g and "y" in g

    def test_parallel_edges_collapse(self):
        g = Graph(edges=[(1, 2), (1, 2), (2, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(edges=[(1, 1)])


class TestErrors:
    def test_unknown_node_queries(self):
        g = path_graph(3)
        for fn in (g.neighbors, g.degree, g.node_weight, g.bfs_levels):
            with pytest.raises(GraphError):
                fn(99)

    def test_diameter_disconnected(self):
        g = Graph(nodes=[1, 2])
        with pytest.raises(GraphError):
            g.diameter()

    def test_diameter_empty(self):
        with pytest.raises(GraphError):
            Graph().diameter()

    def test_min_degree_no_candidates(self):
        with pytest.raises(GraphError):
            Graph().min_degree_node()


class TestTraversal:
    def test_bfs_levels_path(self):
        g = path_graph(5)
        assert g.bfs_levels(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_levels_partial_on_disconnected(self):
        g = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        assert set(g.bfs_levels(1)) == {1, 2}

    def test_bfs_farthest(self):
        g = path_graph(6)
        far, depth = g.bfs_farthest(0)
        assert far == 5
        assert depth == 5

    def test_bfs_farthest_random_tiebreak(self):
        # star: all leaves at distance 1 — random rng must pick one of them
        g = Graph(edges=[(0, i) for i in range(1, 6)])
        rng = random.Random(0)
        picks = {g.bfs_farthest(0, rng)[0] for _ in range(30)}
        assert len(picks) > 1  # not always the same leaf
        assert all(p != 0 for p in picks)

    def test_eccentricity_and_diameter(self):
        g = path_graph(7)
        assert g.eccentricity(3) == 3
        assert g.eccentricity(0) == 6
        assert g.diameter() == 6

    def test_cycle_diameter(self):
        assert cycle_graph(8).diameter() == 4

    def test_connected_components(self):
        g = Graph(nodes=range(5), edges=[(0, 1), (2, 3)])
        comps = sorted(g.connected_components(), key=len)
        assert [len(c) for c in comps] == [1, 2, 2]
        assert not g.is_connected()
        assert Graph().is_connected()

    def test_component_slots_follow_first_nodes_in_bfs_order(self):
        g = Graph(nodes=["c", "a", "b", "d"], edges=[("a", "d"), ("c", "b")])
        comps = g.component_slots()
        assert [c.tolist() for c in comps] == [
            [g.index_of("c"), g.index_of("b")],
            [g.index_of("a"), g.index_of("d")],
        ]
        assert g.connected_components() == [{"c", "b"}, {"a", "d"}]
        assert Graph().component_slots() == []


class TestFromRows:
    def test_slots_labels_weights_and_edges(self):
        adj = [{1, 2}, {0}, {0}]
        g = Graph.from_rows(["x", "y", "z"], [1.0, 2.0, 0.5], adj, [0, 1, 2])
        assert [g.index_of(v) for v in "xyz"] == [0, 1, 2]
        assert g.node_weight("y") == 2.0
        assert g.num_edges == 2
        assert g.adjacency_view() is adj
        assert sorted(g.edges()) == [("x", "y"), ("x", "z")]

    def test_label_index_shares_the_slot_ints(self):
        # Past 256, every int is its own object unless shared.
        slots = list(range(300))
        g = Graph.from_rows([f"n{k}" for k in slots], [1.0] * 300, [set() for _ in slots], slots)
        assert all(g.index_of(f"n{k}") is slots[k] for k in slots)


class TestBipartite:
    def test_even_cycle_bipartite(self):
        ok, coloring = cycle_graph(6).is_bipartite()
        assert ok
        for u, v in cycle_graph(6).edges():
            assert coloring[u] != coloring[v]

    def test_odd_cycle_not_bipartite(self):
        ok, _ = cycle_graph(5).is_bipartite()
        assert not ok

    def test_disconnected_bipartite(self):
        g = Graph(nodes=range(4), edges=[(0, 1), (2, 3)])
        ok, coloring = g.is_bipartite()
        assert ok
        assert len(coloring) == 4

    def test_empty_bipartite(self):
        ok, coloring = Graph().is_bipartite()
        assert ok
        assert coloring == {}


class TestMisc:
    def test_min_degree_node(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3)])
        assert g.min_degree_node() == 3

    def test_min_degree_node_candidates(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3)])
        assert g.min_degree_node(candidates=[0, 1]) in (0, 1)

    def test_edges_iterator_unique(self):
        g = cycle_graph(5)
        edges = list(g.edges())
        assert len(edges) == 5
        canonical = {frozenset(e) for e in edges}
        assert len(canonical) == 5

    def test_max_degree(self):
        g = Graph(edges=[(0, i) for i in range(1, 5)])
        assert g.max_degree() == 4
        assert Graph().max_degree() == 0

    def test_repr(self):
        assert "num_nodes=3" in repr(path_graph(3))


class TestIndexedCore:
    """The interned-index API backing the hot paths."""

    def test_index_label_round_trip(self):
        g = Graph(nodes=["a", "b", "c"])
        for label in g.nodes:
            assert g.label_of(g.index_of(label)) == label

    def test_unknown_label_rejected(self):
        g = Graph(nodes=["a"])
        with pytest.raises(GraphError):
            g.index_of("missing")

    def test_neighbors_view_matches_neighbors(self):
        g = cycle_graph(6)
        for node in g.nodes:
            assert set(g.neighbors_view(node)) == set(g.neighbors(node))

    def test_adjacency_view_in_index_space(self):
        g = path_graph(4)
        adj = g.adjacency_view()
        labels = g.labels_view()
        for node in g.nodes:
            i = g.index_of(node)
            assert {labels[j] for j in adj[i]} == set(g.neighbors(node))

    def test_bfs_order_from_is_distance_sorted(self):
        g = cycle_graph(8)
        order, dist = g.bfs_order_from(g.index_of(0))
        distances = [dist[i] for i in order]
        assert distances == sorted(distances)
        assert len(order) == 8


class TestMutationBugfixes:
    """Regressions for the graph-core bugs once found in node weights and lookups."""

    def test_re_add_vertex_preserves_weight(self):
        # A node re-listed through an edge keeps its weight.
        g = Graph(nodes={"a": 5.0}, edges=[("a", "b")])
        assert g.node_weight("a") == 5.0
        assert g.node_weight("b") == 1.0

    def test_add_vertex_rejects_non_positive_weight(self):
        for bad in (0, 0.0, -1.0):
            with pytest.raises(GraphError):
                Graph(nodes={"a": bad})
        g = Graph(nodes={"a": 1.5})
        assert g.node_weight("a") == 1.5

    def test_min_degree_node_unknown_candidate(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.min_degree_node(candidates=[0, "missing"])
