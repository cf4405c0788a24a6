"""End-to-end tests for Algorithm I."""

import random

import pytest
from hypothesis import given, settings

from repro.core.algorithm1 import Algorithm1Error, algorithm1, run_single_start
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from repro.core.validation import brute_force_min_cut, check_bipartition
from tests.conftest import hypergraphs


class TestBasics:
    def test_returns_valid_bipartition(self, small_random_hypergraph):
        result = algorithm1(small_random_hypergraph, num_starts=5, seed=0)
        bp = result.bipartition
        assert bp.left | bp.right == set(small_random_hypergraph.vertices)
        assert bp.left and bp.right
        check_bipartition(bp)

    def test_reproducible_with_seed(self, small_random_hypergraph):
        a = algorithm1(small_random_hypergraph, num_starts=5, seed=42)
        b = algorithm1(small_random_hypergraph, num_starts=5, seed=42)
        assert a.bipartition == b.bipartition
        assert [s.cutsize for s in a.starts] == [s.cutsize for s in b.starts]

    def test_accepts_random_instance_as_seed(self, small_random_hypergraph):
        result = algorithm1(small_random_hypergraph, seed=random.Random(1))
        assert result.cutsize >= 0

    def test_start_records(self, small_random_hypergraph):
        result = algorithm1(small_random_hypergraph, num_starts=7, seed=0)
        assert len(result.starts) == 7
        assert result.cutsize == min(s.cutsize for s in result.starts)
        best = result.best_start
        assert best.cutsize == result.cutsize

    def test_cutsize_property(self, triangle_hypergraph):
        result = algorithm1(triangle_hypergraph, seed=0)
        assert result.cutsize == result.bipartition.cutsize


class TestInputValidation:
    def test_too_few_vertices(self):
        with pytest.raises(Algorithm1Error):
            algorithm1(Hypergraph(vertices=["only"]))
        with pytest.raises(Algorithm1Error):
            algorithm1(Hypergraph())

    def test_bad_num_starts(self, triangle_hypergraph):
        with pytest.raises(Algorithm1Error):
            algorithm1(triangle_hypergraph, num_starts=0)

    @pytest.mark.parametrize("threshold", [1, 0, -3])
    def test_threshold_below_two_rejected_typed(self, triangle_hypergraph, threshold):
        with pytest.raises(Algorithm1Error, match="edge_size_threshold"):
            algorithm1(triangle_hypergraph, edge_size_threshold=threshold)

    def test_threshold_two_accepted(self, triangle_hypergraph):
        # Every net of the triangle has two pins: all are ignored, and
        # the filter then falls back to the whole hypergraph.
        result = algorithm1(triangle_hypergraph, edge_size_threshold=2, seed=0)
        assert result.ignored_edges == frozenset()


class TestEdgeCases:
    def test_edgeless_hypergraph(self):
        h = Hypergraph(vertices=range(6))
        result = algorithm1(h, seed=0)
        assert result.cutsize == 0
        assert abs(len(result.bipartition.left) - len(result.bipartition.right)) <= 1

    @pytest.mark.parametrize(
        "h",
        [Hypergraph(edges={"a": [1, 2], "b": [3, 4]}), Hypergraph(vertices=range(3))],
        ids=["component-packing", "edgeless"],
    )
    def test_seedless_answers_count_their_one_start(self, h):
        result = algorithm1(h, num_starts=5, seed=0)
        assert len(result.starts) == result.counters["num_starts"] == 1

    def test_two_vertices(self):
        h = Hypergraph(edges={"n": [1, 2]})
        result = algorithm1(h, seed=0)
        assert len(result.bipartition.left) == 1
        assert result.cutsize == 1  # the only net must cross

    def test_single_edge_many_free(self):
        h = Hypergraph(vertices=range(10), edges={"n": [0, 1]})
        result = algorithm1(h, seed=0)
        assert result.cutsize in (0, 1)
        assert result.bipartition.left and result.bipartition.right

    def test_disconnected_dual_gives_zero_cut(self):
        h = Hypergraph(
            edges={"a": [1, 2], "b": [2, 3], "x": [10, 11], "y": [11, 12]}
        )
        result = algorithm1(h, seed=0)
        assert result.cutsize == 0
        # each cluster wholly on one side
        bp = result.bipartition
        assert {1, 2, 3} <= bp.left or {1, 2, 3} <= bp.right
        assert {10, 11, 12} <= bp.left or {10, 11, 12} <= bp.right

    def test_many_components_balanced(self):
        h = Hypergraph(edges={f"c{i}": [2 * i, 2 * i + 1] for i in range(7)})
        result = algorithm1(h, seed=0)
        assert result.cutsize == 0
        assert result.bipartition.cardinality_imbalance <= 2

    def test_all_edges_filtered_falls_back(self):
        """If the threshold kills every edge, filtering is disabled."""
        h = Hypergraph(edges={"big1": range(10), "big2": range(5, 15)})
        result = algorithm1(h, seed=0, edge_size_threshold=3)
        assert result.ignored_edges == frozenset()
        assert result.intersection.num_nodes == 2

    def test_filtering_reported(self):
        h = Hypergraph(edges={"small": [1, 2], "small2": [2, 3], "big": range(20)})
        result = algorithm1(h, seed=0, edge_size_threshold=10)
        assert result.ignored_edges == frozenset({"big"})
        assert result.intersection.num_nodes == 2

    def test_threshold_none_disables_filtering(self):
        h = Hypergraph(edges={"small": [1, 2], "big": range(20)})
        result = algorithm1(h, seed=0, edge_size_threshold=None)
        assert result.ignored_edges == frozenset()


class TestQuality:
    def test_optimal_on_figure4(self, figure4_hypergraph):
        result = algorithm1(figure4_hypergraph, num_starts=50, seed=1)
        optimum = brute_force_min_cut(figure4_hypergraph).cutsize
        assert result.cutsize == optimum == 1

    def test_beats_random_on_clustered(self):
        from repro.baselines.random_cut import random_cut
        from repro.generators.netlists import clustered_netlist

        h = clustered_netlist(60, 110, "std_cell", seed=7)
        alg1 = algorithm1(h, num_starts=20, seed=0)
        rand = random_cut(h, num_starts=20, seed=0)
        assert alg1.cutsize < rand.cutsize

    def test_finds_planted_cut(self):
        from repro.generators.difficult import planted_bisection

        inst = planted_bisection(80, 110, crossing_edges=2, seed=3)
        result = algorithm1(inst.hypergraph, num_starts=25, seed=0)
        assert result.cutsize <= 2

    def test_multistart_never_worse(self, small_random_hypergraph):
        one = algorithm1(small_random_hypergraph, num_starts=1, seed=9)
        many = algorithm1(small_random_hypergraph, num_starts=20, seed=9)
        assert many.cutsize <= one.cutsize

    def test_balance_tolerance_prefers_feasible(self):
        from repro.generators.netlists import clustered_netlist

        h = clustered_netlist(80, 150, "pcb", seed=11)
        balanced = algorithm1(h, num_starts=30, seed=0, balance_tolerance=0.2)
        assert balanced.bipartition.weight_imbalance_fraction <= 0.5

    def test_weighted_balance_improves_weight_split(self):
        rng = random.Random(4)
        h = Hypergraph(vertices=range(40))
        for _ in range(70):
            h.add_edge(rng.sample(range(40), rng.choice([2, 3])))
        plain = algorithm1(h, num_starts=10, seed=2)
        weighted = algorithm1(h, num_starts=10, seed=2, weighted_balance=True)
        assert (
            weighted.bipartition.weight_imbalance_fraction
            <= plain.bipartition.weight_imbalance_fraction + 1e-9
        )


class TestWeightedObjective:
    def test_weight_objective_prefers_light_cuts(self):
        # A dumbbell where the narrow waist is one HEAVY net and an
        # alternative wider cut crosses two light nets.
        h = Hypergraph()
        for i in range(4):
            h.add_edge([f"a{i}", f"a{(i + 1) % 4}"], name=f"la{i}")
            h.add_edge([f"b{i}", f"b{(i + 1) % 4}"], name=f"lb{i}")
        h.add_edge(["a0", "b0"], name="heavy", weight=10.0)
        h.add_edge(["a1", "b1"], name="light1", weight=0.1)
        h.add_edge(["a2", "b2"], name="light2", weight=0.1)
        result = algorithm1(
            h, num_starts=30, seed=0, objective="weight", variant="min_loser_weight"
        )
        # cutting the three bridges (weight 10.2) is the edge-count
        # optimum's worst case; weighted mode must avoid paying >= heavy
        assert result.bipartition.weighted_cutsize <= 10.2

    def test_unknown_objective_rejected(self, triangle_hypergraph):
        with pytest.raises(Algorithm1Error):
            algorithm1(triangle_hypergraph, objective="area")

    def test_edges_objective_is_default_ranking(self, small_random_hypergraph):
        a = algorithm1(small_random_hypergraph, num_starts=5, seed=3)
        b = algorithm1(small_random_hypergraph, num_starts=5, seed=3, objective="edges")
        assert a.bipartition == b.bipartition


class TestSingleStart:
    def test_trace_fields(self, figure4_hypergraph):
        ig = intersection_graph(figure4_hypergraph)
        trace = run_single_start(ig, figure4_hypergraph, random.Random(0), start_node="k")
        assert trace.cut.seed_u == "k"
        assert trace.bipartition.left | trace.bipartition.right == set(
            figure4_hypergraph.vertices
        )
        check_bipartition(trace.bipartition)

    def test_variant_passthrough(self, figure4_hypergraph):
        ig = intersection_graph(figure4_hypergraph)
        for variant in ("min_degree", "random_min_degree", "min_loser_weight"):
            trace = run_single_start(
                ig, figure4_hypergraph, random.Random(0), variant=variant
            )
            check_bipartition(trace.bipartition)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_always_valid_partition(self, h):
        result = algorithm1(h, num_starts=3, seed=0)
        bp = result.bipartition
        assert bp.left | bp.right == set(h.vertices)
        assert not (bp.left & bp.right)
        assert bp.left and bp.right
        check_bipartition(bp)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(max_vertices=10, max_edges=10))
    def test_never_worse_than_twice_optimum_plus_slack(self, h):
        """Loose quality sanity on tiny instances (no balance constraint)."""
        result = algorithm1(h, num_starts=10, seed=0)
        optimum = brute_force_min_cut(h).cutsize
        assert result.cutsize >= optimum  # cannot beat the oracle
