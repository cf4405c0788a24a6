"""Tests for the intersection-graph dual construction (Figure 1 et al.)."""

from hypothesis import given

from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from tests.conftest import hypergraphs


class TestFigure1:
    """The paper's Figure 1: G dual to the 8-node, 5-edge hypergraph."""

    def test_is_a_path(self, figure1_hypergraph):
        ig = intersection_graph(figure1_hypergraph)
        g = ig.graph
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert g.neighbors("A") == frozenset({"B"})
        assert g.neighbors("B") == frozenset({"A", "C"})
        assert g.neighbors("C") == frozenset({"B", "D"})
        assert g.neighbors("E") == frozenset({"D"})

    def test_shared_vertices_witness(self, figure1_hypergraph):
        ig = intersection_graph(figure1_hypergraph)
        assert ig.shared("A", "B") == frozenset({3})
        assert ig.shared("B", "A") == frozenset({3})  # order-insensitive
        assert ig.shared("A", "E") == frozenset()


class TestFigure4:
    def test_counts(self, figure4_hypergraph):
        ig = intersection_graph(figure4_hypergraph)
        assert ig.num_nodes == 12
        # c touches modules {1,3,4,12}: meets a,b,d,e,f (via 1/4/12) and g,h (via 3)
        assert ig.graph.neighbors("c") == frozenset({"a", "b", "d", "e", "f", "g", "h"})

    def test_two_clusters_bridged_by_c_and_h(self, figure4_hypergraph):
        ig = intersection_graph(figure4_hypergraph)
        g = ig.graph
        # Removing c and h separates the left cluster {a,b,d,e,f}
        # from the right cluster {g,i,j,k,l}.
        keep = set(g.nodes) - {"c", "h"}
        sub = Graph(
            nodes=[v for v in g.nodes if v in keep],
            edges=[(u, v) for u, v in g.edges() if u in keep and v in keep],
        )
        comps = sorted(sub.connected_components(), key=len)
        assert {frozenset(c) for c in comps} == {
            frozenset({"a", "b", "d", "e", "f"}),
            frozenset({"g", "i", "j", "k", "l"}),
        }


class TestStructure:
    def test_isolated_edges_become_isolated_nodes(self):
        h = Hypergraph(edges={"A": [1, 2], "B": [3, 4]})
        ig = intersection_graph(h)
        assert ig.graph.degree("A") == 0
        assert ig.graph.degree("B") == 0

    def test_single_pin_nets(self):
        h = Hypergraph(edges={"A": [1], "B": [1, 2]})
        ig = intersection_graph(h)
        assert ig.graph.has_edge("A", "B")  # they share module 1

    def test_empty_hypergraph(self):
        ig = intersection_graph(Hypergraph())
        assert ig.num_nodes == 0
        assert ig.num_edges == 0

    def test_node_weights_are_edge_weights(self):
        h = Hypergraph()
        h.add_edge([1, 2], name="x", weight=3.0)
        ig = intersection_graph(h)
        assert ig.graph.node_weight("x") == 3.0

    def test_slots_are_index_rows_in_ascending_order(self):
        h = Hypergraph(edges={("n", k): [k, k + 1, k + 2] for k in range(400)})
        ig = intersection_graph(h)
        g = ig.graph
        assert g.labels_view() == h.edge_names
        assert g.weights_view() == ig.index.edge_weights.tolist()
        assert g.num_nodes == 400
        # Net k meets nets k-2 .. k+2, listed by slot.
        assert g.row_lists()[200] == [198, 199, 201, 202]
        assert g.row_lists()[0] == [1, 2]

    def test_degree_bound(self):
        """deg_G(e) <= sum over pins of (deg_H(pin) - 1)."""
        h = Hypergraph(
            edges={"A": [1, 2], "B": [1, 3], "C": [1, 4], "D": [2, 3]}
        )
        ig = intersection_graph(h)
        for name in h.edge_names:
            bound = sum(h.vertex_degree(v) - 1 for v in h.edge_members(name))
            assert ig.graph.degree(name) <= bound


class _SameRepr:
    """Distinct hashable edge names that repr() identically."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "edge"


class TestReprCollisions:
    """Regression: pair lookups must not key on repr() strings.

    The old construction probed a ``repr``-keyed dict, so two distinct
    edge-name objects with the same ``repr`` could shadow each other's
    shared-vertex witnesses.
    """

    def test_distinct_names_sharing_a_repr(self):
        e1, e2 = _SameRepr(1), _SameRepr(2)
        h = Hypergraph(edges={e1: [1, 2], e2: [2, 3], "X": [1, 3]})
        ig = intersection_graph(h)
        assert ig.graph.has_edge(e1, e2)
        assert ig.shared(e1, e2) == frozenset({2})
        assert ig.shared(e2, e1) == frozenset({2})
        assert ig.shared(e1, "X") == frozenset({1})
        assert ig.shared(e2, "X") == frozenset({3})

    def test_witness_map_distinguishes_same_repr_pairs(self):
        e1, e2, e3 = _SameRepr(1), _SameRepr(2), _SameRepr(3)
        h = Hypergraph(edges={e1: [1, 2], e2: [2, 3], e3: [3, 1]})
        ig = intersection_graph(h)
        witnesses = {ig.shared(a, b) for a, b in ig.graph.edges()}
        assert witnesses == {frozenset({1}), frozenset({2}), frozenset({3})}


class TestProperties:
    @given(hypergraphs())
    def test_adjacency_iff_intersection(self, h):
        ig = intersection_graph(h)
        names = h.edge_names
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                intersects = bool(h.edge_members(a) & h.edge_members(b))
                assert ig.graph.has_edge(a, b) == intersects
                if intersects:
                    assert ig.shared(a, b) == h.edge_members(a) & h.edge_members(b)

    @given(hypergraphs())
    def test_every_edge_is_a_node(self, h):
        ig = intersection_graph(h)
        assert set(ig.graph.nodes) == set(h.edge_names)
