"""Unit tests for the Hypergraph data structure."""

import pickle

import pytest

from repro.core.hypergraph import Hypergraph, HypergraphError


class TestConstruction:
    def test_empty(self):
        h = Hypergraph()
        assert h.num_vertices == 0
        assert h.num_edges == 0
        assert h.num_pins == 0

    def test_from_mapping(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [2, 3]})
        assert h.num_vertices == 3
        assert h.num_edges == 2
        assert h.edge_members("A") == frozenset({1, 2})

    def test_from_iterable_autonames(self):
        h = Hypergraph(edges=[[1, 2], [2, 3], [3, 4]])
        assert h.num_edges == 3
        assert set(h.edge_names) == {"e0", "e1", "e2"}

    def test_from_edge_list(self):
        h = Hypergraph.from_edge_list([[1, 2, 3], [3, 4]])
        assert h.num_pins == 5

    def test_explicit_vertices_plus_edges(self):
        h = Hypergraph(vertices=["x", "y", "z"], edges={"n": ["x", "y"]})
        assert h.num_vertices == 3
        assert h.vertex_degree("z") == 0

    def test_duplicate_pins_collapse(self):
        h = Hypergraph(edges={"n": [1, 1, 2, 2]})
        assert h.edge_size("n") == 2

    def test_auto_names_skip_taken(self):
        h = Hypergraph()
        h.add_edge([1, 2], name="e0")
        name = h.add_edge([2, 3])
        assert name != "e0"
        assert h.num_edges == 2


class TestErrors:
    def test_empty_edge_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph(edges={"n": []})

    def test_duplicate_edge_name_rejected(self):
        h = Hypergraph(edges={"n": [1, 2]})
        with pytest.raises(HypergraphError):
            h.add_edge([3, 4], name="n")

    def test_nonpositive_vertex_weight_rejected(self):
        h = Hypergraph()
        with pytest.raises(HypergraphError):
            h.add_vertex("v", weight=0)
        with pytest.raises(HypergraphError):
            h.add_vertex("v", weight=-1.5)

    def test_nonpositive_edge_weight_rejected(self):
        h = Hypergraph()
        with pytest.raises(HypergraphError):
            h.add_edge([1, 2], weight=0)

    def test_unknown_edge_queries(self):
        h = Hypergraph(edges={"n": [1, 2]})
        with pytest.raises(HypergraphError):
            h.edge_members("missing")
        with pytest.raises(HypergraphError):
            h.edge_weight("missing")
        with pytest.raises(HypergraphError):
            h.remove_edge("missing")

    def test_unknown_vertex_queries(self):
        h = Hypergraph(edges={"n": [1, 2]})
        with pytest.raises(HypergraphError):
            h.vertex_weight(99)
        with pytest.raises(HypergraphError):
            h.incident_edges(99)
        with pytest.raises(HypergraphError):
            h.remove_vertex(99)
        with pytest.raises(HypergraphError):
            h.set_vertex_weight(99, 2.0)

    def test_induced_unknown_vertices_rejected(self):
        h = Hypergraph(edges={"n": [1, 2]})
        with pytest.raises(HypergraphError):
            h.induced([1, 99])


class TestWeights:
    def test_default_weights_are_one(self):
        h = Hypergraph(edges={"n": [1, 2]})
        assert h.vertex_weight(1) == 1.0
        assert h.edge_weight("n") == 1.0

    def test_set_vertex_weight(self):
        h = Hypergraph(edges={"n": [1, 2]})
        h.set_vertex_weight(1, 3.5)
        assert h.vertex_weight(1) == 3.5
        assert h.total_vertex_weight == 4.5

    def test_readding_vertex_updates_weight(self):
        h = Hypergraph()
        h.add_vertex("v", 1.0)
        h.add_vertex("v", 2.0)
        assert h.num_vertices == 1
        assert h.vertex_weight("v") == 2.0

    def test_weighted_edge(self):
        h = Hypergraph()
        h.add_edge([1, 2], name="clk", weight=4.0)
        assert h.edge_weight("clk") == 4.0


class TestPickle:
    def test_a_round_trip_keeps_the_incidence_order(self):
        # Int names 8 apart share a bucket of a small set's hash table, so
        # a set filled in another order iterates in another order.
        h = Hypergraph(edges={3: ["a", "b"], 11: ["a", "c"]})
        unread = pickle.loads(pickle.dumps(h))
        order = list(h.incident_edges_view("a"))
        back = pickle.loads(pickle.dumps(h))
        assert list(back.incident_edges_view("a")) == order
        assert list(unread.incident_edges_view("a")) == order

    def test_pickles_to_the_same_bytes_before_and_after_incident_edges(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4], "C": [4, 1]})
        before = pickle.dumps(h, pickle.HIGHEST_PROTOCOL)
        assert h.incident_edges(3) == frozenset({"A", "B"})
        assert pickle.dumps(h, pickle.HIGHEST_PROTOCOL) == before


class TestIncidence:
    def test_incident_edges(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4]})
        assert h.incident_edges(3) == frozenset({"A", "B"})
        assert h.incident_edges(1) == frozenset({"A"})

    def test_vertex_degree(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [1, 3], "C": [1, 4]})
        assert h.vertex_degree(1) == 3
        assert h.vertex_degree(4) == 1

    def test_neighbors(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4]})
        assert h.neighbors(3) == frozenset({1, 2, 4})
        assert h.neighbors(1) == frozenset({2, 3})

    def test_max_degree_and_size(self):
        h = Hypergraph(edges={"A": [1, 2, 3, 4, 5], "B": [1, 2]})
        assert h.max_edge_size == 5
        assert h.max_vertex_degree == 2

    def test_max_bounds_of_empty(self):
        h = Hypergraph()
        assert h.max_edge_size == 0
        assert h.max_vertex_degree == 0

    def test_num_pins(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4]})
        assert h.num_pins == 5

    def test_average_edge_size(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4]})
        assert h.average_edge_size() == 2.5
        assert Hypergraph().average_edge_size() == 0.0


class TestMutation:
    def test_remove_edge_keeps_vertices(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [2, 3]})
        h.remove_edge("A")
        assert h.num_edges == 1
        assert 1 in h
        assert h.incident_edges(1) == frozenset()

    def test_remove_vertex_shrinks_edges(self):
        h = Hypergraph(edges={"A": [1, 2, 3]})
        h.remove_vertex(3)
        assert h.edge_members("A") == frozenset({1, 2})

    def test_remove_vertex_drops_empty_edges(self):
        h = Hypergraph(edges={"A": [1], "B": [1, 2]})
        h.remove_vertex(1)
        assert not h.has_edge("A")
        assert h.edge_members("B") == frozenset({2})

    def test_validate_after_mutations(self, small_random_hypergraph):
        h = small_random_hypergraph
        h.remove_edge(h.edge_names[0])
        h.remove_vertex(5)
        h.add_edge([0, 1, 2], name="new")
        h.validate()


class TestDerived:
    def test_induced_restricts_edges(self):
        h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4], "C": [4, 5]})
        sub = h.induced({1, 2, 3})
        assert sub.num_vertices == 3
        assert sub.edge_members("A") == frozenset({1, 2, 3})
        assert sub.edge_members("B") == frozenset({3})  # kept as singleton
        assert not sub.has_edge("C")

    def test_induced_preserves_weights(self):
        h = Hypergraph(edges={"A": [1, 2]})
        h.set_vertex_weight(1, 7.0)
        sub = h.induced({1})
        assert sub.vertex_weight(1) == 7.0

    def test_restricted_to_edges(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [2, 3]})
        sub = h.restricted_to_edges(["A"])
        assert sub.num_edges == 1
        assert sub.num_vertices == 3  # all vertices kept

    def test_connected_components(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [2, 3], "C": [10, 11]})
        comps = sorted(h.connected_components(), key=len)
        assert [len(c) for c in comps] == [2, 3]
        assert not h.is_connected()

    def test_isolated_vertex_is_own_component(self):
        h = Hypergraph(vertices=[1, 2], edges={"A": [1, 2]})
        h.add_vertex(99)
        assert len(h.connected_components()) == 2

    def test_empty_is_connected(self):
        assert Hypergraph().is_connected()

    def test_is_graph(self):
        assert Hypergraph(edges=[[1, 2], [2, 3]]).is_graph()
        assert not Hypergraph(edges=[[1, 2, 3]]).is_graph()

    def test_edge_size_histogram(self):
        h = Hypergraph(edges=[[1, 2], [3, 4], [1, 2, 3]])
        assert h.edge_size_histogram() == {2: 2, 3: 1}


class TestEquality:
    def test_copy_equal_but_independent(self, small_random_hypergraph):
        h = small_random_hypergraph
        c = h.copy()
        assert c == h
        c.add_edge([0, 1], name="extra")
        assert c != h
        assert not h.has_edge("extra")

    def test_eq_other_type(self):
        assert Hypergraph() != 42

    def test_repr(self):
        h = Hypergraph(edges={"A": [1, 2]})
        assert "num_vertices=2" in repr(h)

    def test_iteration_and_len(self):
        h = Hypergraph(vertices=[3, 1, 2])
        assert len(h) == 3
        assert list(h) == [3, 1, 2]
