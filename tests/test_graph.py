"""Unit tests for the plain Graph structure and its traversals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph, GraphError
from repro.core.intersection import intersection_graph
from tests.conftest import block_hypergraphs


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
        # Each edge both ways, one of them twice: repeats collapse.
        g = Graph.from_rows(["x", "y", "z"], [1.0, 2.0, 0.5], [2, 0, 1, 0, 0], [0, 2, 0, 1, 1])
        assert [g.index_of(v) for v in "xyz"] == [0, 1, 2]
        assert g.node_weight("y") == 2.0
        assert g.num_edges == 2
        assert g.row_lists() == [[1, 2], [0], [0]]
        assert list(g.edges()) == [("x", "y"), ("x", "z")]


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
        g = Graph(nodes="abcd", edges=[("d", "a"), ("b", "c"), ("a", "b"), ("c", "a")])
        rows = g.row_lists()
        labels = g.labels_view()
        for node in g.nodes:
            i = g.index_of(node)
            assert rows[i] == sorted(rows[i])
            assert [labels[j] for j in rows[i]] == list(g.neighbors_view(node))
            assert {labels[j] for j in rows[i]} == set(g.neighbors(node))
            assert len(rows[i]) == g.degree(node)
        assert g.row_lists() is rows

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


@st.composite
def listed_twice(draw):
    """``(n, edges, reordered)``: one edge set listed two ways.

    ``reordered`` shuffles the edges, flips some of them and repeats
    some; the node list fixes every slot.
    """
    n = draw(st.integers(2, 20))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    edges = [tuple(p) for p in draw(st.lists(pairs, max_size=3 * n))]
    extra = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    flipped = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges + extra]
    return n, edges, draw(st.permutations(flipped))


class TestCanonicalOrder:
    """Traversals follow slot order alone, never the order edges were listed in."""

    def test_row_order_ignores_listing_order(self):
        g = Graph(range(10), [(0, 1), (0, 9)])
        h = Graph(range(10), [(0, 9), (0, 1)])
        assert g.bfs_order_from(0)[0].tolist() == h.bfs_order_from(0)[0].tolist() == [0, 1, 9]
        assert g.row_lists()[0] == h.row_lists()[0] == [1, 9]

    @given(listed_twice())
    @settings(max_examples=200, deadline=None)
    def test_reordered_edges_give_identical_traversals(self, case):
        n, edges, reordered = case
        g = Graph(range(n), edges)
        h = Graph(range(n), reordered)
        assert g.csr().indptr.tolist() == h.csr().indptr.tolist()
        assert g.csr().indices.tolist() == h.csr().indices.tolist()
        for s in range(n):
            (g_order, g_dist), (h_order, h_dist) = g.bfs_order_from(s), h.bfs_order_from(s)
            assert g_order.tolist() == h_order.tolist()
            assert g_dist[g_order].tolist() == h_dist[h_order].tolist()
        assert [c.tolist() for c in g.component_slots()] == [
            c.tolist() for c in h.component_slots()
        ]
        assert g.row_lists() == h.row_lists()

    @given(block_hypergraphs())
    @settings(max_examples=100, deadline=None)
    def test_dual_rows_strictly_ascend(self, hypergraph):
        csr = intersection_graph(hypergraph).graph.csr()
        for lo, hi in zip(csr.indptr[:-1].tolist(), csr.indptr[1:].tolist()):
            row = csr.indices[lo:hi].tolist()
            assert all(a < b for a, b in zip(row, row[1:]))
