"""Tests for the fast-pipeline work: winner-commit order, degenerate
seeds, per-phase timings, and the parallel multi-start knob."""

import random

import pytest

from repro.core.algorithm1 import (
    TIMING_PHASES,
    Algorithm1Error,
    _commit_winner_pins,
    algorithm1,
    run_single_start,
)
from repro.core.complete_cut import CompletionResult
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from repro.core.validation import check_bipartition
from repro.generators import random_hypergraph


def _commit(h, completion, left, right):
    """Run the index-space commit on label sets, updating them in place."""
    ig = intersection_graph(h)
    sides = ig.index.sides_of(left, right)
    _commit_winner_pins(ig, completion, sides)
    left |= ig.index.labels_of(sides, 0)
    right |= ig.index.labels_of(sides, 1)


class TestWinnerCommitOrder:
    """Regression for the left-before-right pin-commit bias.

    A pin claimed by winners on opposite sides must go to whichever
    winner Complete-Cut selected *first* — not automatically to the left
    winner, as the old commit loop did.
    """

    @staticmethod
    def _hypergraph():
        return Hypergraph(edges={"eL": ["a", "x"], "eR": ["b", "x"]})

    def test_earlier_left_winner_takes_shared_pin(self):
        h = self._hypergraph()
        completion = CompletionResult(
            winners_left=frozenset({"eL"}),
            winners_right=frozenset({"eR"}),
            losers=frozenset(),
            order=("eL", "eR"),
        )
        left, right = set(), set()
        _commit(h, completion, left, right)
        assert "x" in left and "x" not in right

    def test_earlier_right_winner_takes_shared_pin(self):
        h = self._hypergraph()
        completion = CompletionResult(
            winners_left=frozenset({"eL"}),
            winners_right=frozenset({"eR"}),
            losers=frozenset(),
            order=("eR", "eL"),
        )
        left, right = set(), set()
        _commit(h, completion, left, right)
        assert "x" in right and "x" not in left

    def test_side_symmetric(self):
        """Mirroring the sides mirrors the commit, pin for pin."""
        h = self._hypergraph()
        forward = CompletionResult(
            winners_left=frozenset({"eL"}),
            winners_right=frozenset({"eR"}),
            losers=frozenset(),
            order=("eR", "eL"),
        )
        mirrored = CompletionResult(
            winners_left=frozenset({"eR"}),
            winners_right=frozenset({"eL"}),
            losers=frozenset(),
            order=("eR", "eL"),
        )
        fl, fr = set(), set()
        _commit(h, forward, fl, fr)
        ml, mr = set(), set()
        _commit(h, mirrored, ml, mr)
        assert (fl, fr) == (mr, ml)

    def test_pre_placed_pins_never_stolen(self):
        h = self._hypergraph()
        completion = CompletionResult(
            winners_left=frozenset({"eL"}),
            winners_right=frozenset(),
            losers=frozenset({"eR"}),
            order=("eL",),
        )
        left, right = set(), {"x"}
        _commit(h, completion, left, right)
        assert "x" in right and "x" not in left
        assert "a" in left


class TestDegenerateSeed:
    """u == v fallback: the seed is an isolated dual node, boundary empty."""

    @staticmethod
    def _instance():
        # "iso" shares no pins with the connected pair eA/eB.
        return Hypergraph(
            edges={"eA": [1, 2], "eB": [2, 3], "iso": [8, 9]}
        )

    def test_isolated_start_yields_empty_boundary(self):
        h = self._instance()
        ig = intersection_graph(h)
        trace = run_single_start(ig, h, random.Random(0), start_node="iso")
        assert trace.cut.seed_u == trace.cut.seed_v == "iso"
        assert trace.bfs_depth == 0
        assert trace.cut.boundary == frozenset()
        assert trace.cut.left == frozenset({"iso"})
        assert trace.cut.right == frozenset({"eA", "eB"})
        check_bipartition(trace.bipartition)

    def test_completion_is_trivial(self):
        h = self._instance()
        ig = intersection_graph(h)
        trace = run_single_start(ig, h, random.Random(1), start_node="iso")
        assert trace.completion.num_losers == 0
        assert trace.boundary.nodes == frozenset()


class TestTimings:
    def test_phases_populated(self):
        h = random_hypergraph(40, 70, seed=2, connect=True)
        result = algorithm1(h, num_starts=3, seed=0)
        assert set(TIMING_PHASES) <= set(result.timings)
        assert all(result.timings[k] >= 0.0 for k in TIMING_PHASES)
        assert result.counters["num_starts"] == 3
        assert result.counters["dual_nodes"] == result.intersection.num_nodes

    def test_trace_carries_bfs_depth_and_timings(self):
        h = random_hypergraph(40, 70, seed=2, connect=True)
        ig = intersection_graph(h)
        trace = run_single_start(ig, h, random.Random(0))
        assert trace.bfs_depth >= 1
        assert {"cut", "complete", "balance"} <= set(trace.timings)

    def test_edgeless_instance_still_reports_timings(self):
        h = Hypergraph(vertices=[1, 2, 3, 4])
        result = algorithm1(h, num_starts=2, seed=0)
        assert set(TIMING_PHASES) <= set(result.timings)


class TestParallel:
    @staticmethod
    def _instance():
        return random_hypergraph(60, 100, seed=3, connect=True)

    def test_invalid_parallel_rejected(self):
        with pytest.raises(Algorithm1Error):
            algorithm1(self._instance(), num_starts=2, parallel=0)

    def test_parallel_results_are_valid(self):
        h = self._instance()
        result = algorithm1(h, num_starts=6, seed=4, parallel=2)
        check_bipartition(result.bipartition)
        assert len(result.starts) == 6
        assert result.counters["parallel_workers"] == 2

    def test_worker_count_does_not_change_the_answer(self):
        h = self._instance()
        results = [
            algorithm1(h, num_starts=6, seed=4, parallel=k) for k in (1, 2, 3)
        ]
        assert results[0].bipartition == results[1].bipartition == results[2].bipartition
        assert results[0].starts == results[1].starts == results[2].starts

    def test_sequential_path_reproducible(self):
        h = self._instance()
        a = algorithm1(h, num_starts=4, seed=7)
        b = algorithm1(h, num_starts=4, seed=7)
        assert a.bipartition == b.bipartition
        assert a.starts == b.starts

    def test_best_matches_its_own_records(self):
        h = self._instance()
        result = algorithm1(h, num_starts=6, seed=4, parallel=2)
        assert result.cutsize == min(s.cutsize for s in result.starts)
