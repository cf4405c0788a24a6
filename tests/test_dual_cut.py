"""Tests for random longest BFS paths, double-BFS cuts, and projection."""

import random

import pytest
from hypothesis import given, settings

from repro.core.dual_cut import (
    DualCutError,
    double_bfs_cut,
    partial_bipartition,
    random_longest_bfs_path,
)
from repro.core.graph import Graph, GraphError
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from repro.core.validation import check_graph_cut, check_partial_bipartition
from tests.conftest import connected_hypergraphs


def path_graph(n):
    return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


class TestRandomLongestBfsPath:
    def test_path_graph_finds_far_end(self):
        g = path_graph(10)
        u, v, depth = random_longest_bfs_path(g, rng=random.Random(0), start=0)
        assert (u, v, depth) == (0, 9, 9)

    def test_random_start_is_valid_node(self):
        g = path_graph(10)
        u, v, depth = random_longest_bfs_path(g, rng=random.Random(3))
        assert u in g and v in g
        assert g.bfs_levels(u)[v] == depth

    def test_double_sweep_at_least_as_deep(self):
        rng = random.Random(1)
        for seed in range(10):
            r = random.Random(seed)
            g = Graph(edges=[(i, r.randrange(i)) for i in range(1, 20)])  # random tree
            u1, v1, d1 = random_longest_bfs_path(g, rng=rng, start=0)
            u2, v2, d2 = random_longest_bfs_path(g, rng=rng, start=0, double_sweep=True)
            assert d2 >= d1

    def test_empty_graph_rejected(self):
        with pytest.raises(DualCutError):
            random_longest_bfs_path(Graph())

    def test_unknown_start_rejected(self):
        with pytest.raises(GraphError):
            random_longest_bfs_path(path_graph(3), start=99)

    def test_single_node(self):
        g = Graph(nodes=["only"])
        u, v, depth = random_longest_bfs_path(g)
        assert u == v == "only"
        assert depth == 0


class TestDoubleBfsCut:
    def test_path_graph_split_in_middle(self):
        g = path_graph(10)
        cut = double_bfs_cut(g, 0, 9)
        assert cut.left | cut.right == set(range(10))
        assert not (cut.left & cut.right)
        assert 0 in cut.left and 9 in cut.right
        # On a path, boundary is exactly the two meeting nodes.
        assert len(cut.boundary) == 2
        check_graph_cut(g, cut)

    def test_same_seed_rejected(self):
        with pytest.raises(DualCutError):
            double_bfs_cut(path_graph(3), 1, 1)

    def test_unknown_seed_rejected(self):
        with pytest.raises(GraphError):
            double_bfs_cut(path_graph(3), 0, 99)

    def test_boundary_symmetry(self):
        """B_L nonempty iff B_R nonempty (adjacency is mutual)."""
        rng = random.Random(5)
        for seed in range(15):
            r = random.Random(seed)
            edges = [(i, r.randrange(i)) for i in range(1, 15)]
            edges += [tuple(r.sample(range(15), 2)) for _ in range(5)]
            g = Graph(nodes=range(15), edges=edges)
            cut = double_bfs_cut(g, 0, 14, rng=rng)
            assert bool(cut.boundary_left) == bool(cut.boundary_right)
            check_graph_cut(g, cut)

    def test_other_components_attached_without_boundary(self):
        # A separate component 10-11, then the isolated node 20.
        edges = [(i, i + 1) for i in range(5)] + [(10, 11)]
        g = Graph(nodes=[*range(6), 10, 11, 20], edges=edges)
        cut = double_bfs_cut(g, 0, 5)
        assert cut.left | cut.right == set(g.nodes)
        # component nodes never become boundary
        assert 10 not in cut.boundary and 20 not in cut.boundary
        check_graph_cut(g, cut)

    def test_interior_accessors(self):
        g = path_graph(4)
        cut = double_bfs_cut(g, 0, 3)
        assert cut.interior_left == cut.left - cut.boundary_left
        assert cut.interior_right == cut.right - cut.boundary_right

    def test_unreached_component_attaches_to_smaller_left_side(self):
        """After a lopsided race, stray components land on the light side."""
        # The path 0-1 holds the seeds only: counts tie at 1-1, and a
        # 3-node component's tie resolves to the left (counts[0] <= counts[1]).
        g = Graph(edges=[(0, 1), ("c1", "c2"), ("c2", "c3")])
        cut = double_bfs_cut(g, 0, 1)
        assert {"c1", "c2", "c3"} <= cut.left
        assert not {"c1", "c2", "c3"} & cut.boundary
        check_graph_cut(g, cut)

    def test_unreached_component_attaches_to_smaller_right_side(self):
        # c1-c2-c3 attaches left, making left the heavy side, so the next
        # component, z, must go right.
        edges = [(0, 1), ("c1", "c2"), ("c2", "c3")]
        g = Graph(nodes=[0, 1, "c1", "c2", "c3", "z"], edges=edges)
        cut = double_bfs_cut(g, 0, 1)
        assert {"c1", "c2", "c3"} <= cut.left
        assert "z" in cut.right
        assert "z" not in cut.boundary
        check_graph_cut(g, cut)

    def test_components_never_contribute_boundary(self):
        """The paper's c = 0 case: unconnectedness means empty boundary."""
        edges = [(i, i + 1) for i in range(4)] + [(("x", k), ("y", k)) for k in range(4)]
        g = Graph(nodes=range(5), edges=edges)
        cut = double_bfs_cut(g, 0, 4)
        extra = {("x", k) for k in range(4)} | {("y", k) for k in range(4)}
        assert not extra & cut.boundary
        assert cut.boundary <= set(range(5))
        check_graph_cut(g, cut)


class TestPartialBipartition:
    def test_figure1_projection(self, figure1_hypergraph):
        ig = intersection_graph(figure1_hypergraph)
        cut = double_bfs_cut(ig.graph, "A", "E")
        partial = partial_bipartition(ig, cut)
        check_partial_bipartition(ig, cut, partial)
        # every vertex accounted for exactly once
        all_sets = [partial.placed_left, partial.placed_right, partial.free]
        assert set().union(*all_sets) == set(figure1_hypergraph.vertices)

    def test_inconsistent_construction_rejected(self):
        from repro.core.dual_cut import PartialBipartition

        with pytest.raises(DualCutError):
            PartialBipartition(
                placed_left=frozenset({1}), placed_right=frozenset({1}), free=frozenset()
            )

    @settings(max_examples=40)
    @given(connected_hypergraphs())
    def test_projection_always_consistent(self, h):
        ig = intersection_graph(h)
        g = ig.graph
        rng = random.Random(0)
        u, v, _ = random_longest_bfs_path(g, rng=rng)
        if u == v:
            return
        cut = double_bfs_cut(g, u, v, rng=rng)
        check_graph_cut(g, cut)
        partial = partial_bipartition(ig, cut)
        check_partial_bipartition(ig, cut, partial)
