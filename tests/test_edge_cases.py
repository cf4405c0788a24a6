"""Edge-case coverage across modules: the paths the main suites skim."""

import random

import pytest

from repro.baselines.simulated_annealing import AnnealingSchedule, simulated_annealing
from repro.baselines.spectral import spectral_bisection
from repro.core.algorithm1 import algorithm1
from repro.core.dual_cut import DualCutError, double_bfs_cut
from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph
from repro.core.validation import check_graph_cut
from repro.generators.random_hypergraph import random_hypergraph


class TestDoubleBfsModes:
    def path(self, n):
        return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])

    def test_level_mode_valid(self):
        g = self.path(9)
        cut = double_bfs_cut(g, 0, 8, mode="level")
        check_graph_cut(g, cut)
        assert 0 in cut.left and 8 in cut.right

    def test_unknown_mode(self):
        with pytest.raises(DualCutError):
            double_bfs_cut(self.path(3), 0, 2, mode="bogus")

    def test_modes_agree_on_path(self):
        """On a path both disciplines split near the middle."""
        g = self.path(20)
        balanced = double_bfs_cut(g, 0, 19, mode="balanced")
        level = double_bfs_cut(g, 0, 19, mode="level")
        assert abs(len(balanced.left) - len(balanced.right)) <= 2
        assert abs(len(level.left) - len(level.right)) <= 2

    def test_balanced_mode_tames_hub(self):
        """Star + path: the hub side must not swallow everything."""
        edges = [("hub", f"leaf{i}") for i in range(1, 30)] + [("hub", "p0")]
        edges += [(f"p{i}", f"p{i + 1}") for i in range(6)]
        g = Graph(edges=edges)
        cut = double_bfs_cut(g, "hub", "p6", mode="balanced")
        check_graph_cut(g, cut)
        # Balanced growth keeps (almost) the whole path tail on p6's side
        # (7 path nodes exist; the hub can never starve the tail).
        assert len(cut.right if "p6" in cut.right else cut.left) >= 5

    def test_rng_tiebreak_varies_start_side(self):
        g = self.path(10)
        sides = set()
        for seed in range(10):
            cut = double_bfs_cut(g, 0, 9, rng=random.Random(seed))
            sides.add(len(cut.left))
        assert sides  # runs without error; sizes recorded


class TestSpectralPaths:
    def test_sparse_solver_branch(self):
        """Above the dense cutoff (600) the Lanczos path is exercised."""
        h = random_hypergraph(650, 900, seed=0, connect=True)
        result = spectral_bisection(h, seed=0)
        assert result.bipartition.cardinality_imbalance <= 1

    def test_two_vertices(self):
        h = Hypergraph(edges={"n": [1, 2]})
        result = spectral_bisection(h)
        assert result.cutsize == 1


class TestAnnealingSchedules:
    def test_freezes_when_no_moves_accepted(self):
        """At tiny temperature with a frozen landscape SA stops early."""
        h = Hypergraph(edges={"a": [1, 2], "b": [3, 4]})
        schedule = AnnealingSchedule(
            initial_temperature=1e-9,
            alpha=0.99,
            moves_per_temperature=10,
            min_temperature=1e-12,
            frozen_after=2,
        )
        result = simulated_annealing(h, schedule=schedule, seed=0)
        assert result.iterations <= 60  # froze long before min_temperature

    def test_calibration_with_downhill_only_landscape(self):
        """All moves improving -> calibration falls back to T0 = 1."""
        h = Hypergraph(edges={f"n{i}": [i, i + 1] for i in range(8)})
        # start from the worst split so most sampled moves are downhill
        from repro.core.partition import Bipartition

        worst = Bipartition(h, set(range(0, 9, 2)), set(range(1, 9, 2)))
        result = simulated_annealing(h, initial=worst, seed=0)
        assert result.cutsize <= worst.cutsize


class TestAlgorithm1Internals:
    def test_isolated_dual_node_start(self):
        """A net sharing no module with others forms an isolated G node;
        starting there must still produce a valid cut."""
        h = Hypergraph(
            edges={"iso": [100, 101], "a": [1, 2], "b": [2, 3], "c": [3, 4]}
        )
        result = algorithm1(h, num_starts=10, seed=0)
        assert result.cutsize <= 1
        bp = result.bipartition
        assert bp.left | bp.right == set(h.vertices)

    def test_intersection_exposed_for_analysis(self):
        h = Hypergraph(edges={"a": [1, 2], "b": [2, 3]})
        result = algorithm1(h, seed=0)
        assert result.intersection.num_nodes == 2
        assert result.intersection.graph.has_edge("a", "b")

    def test_best_start_matches_result(self):
        h = random_hypergraph(40, 60, seed=2, connect=True)
        result = algorithm1(h, num_starts=8, seed=0)
        assert result.best_start.cutsize == min(s.cutsize for s in result.starts)

    def test_weighted_balance_with_free_vertices(self):
        h = Hypergraph(vertices=range(12), edges={"a": [0, 1], "b": [1, 2]})
        h.set_vertex_weight(11, 5.0)
        result = algorithm1(h, num_starts=5, seed=0, weighted_balance=True)
        assert result.bipartition.weight_imbalance_fraction <= 0.6


class TestGraphCornerCases:
    def test_bfs_farthest_on_singleton(self):
        g = Graph(nodes=["x"])
        far, depth = g.bfs_farthest("x")
        assert far == "x" and depth == 0

    def test_eccentricity_isolated(self):
        g = Graph(nodes=["a"])
        assert g.eccentricity("a") == 0
