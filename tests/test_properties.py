"""Cross-module property-based tests (hypothesis).

These exercise whole pipelines on random inputs and assert the structural
invariants the paper's constructions guarantee — the safety net that unit
tests of individual modules cannot provide.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cutstate import CutState
from repro.core.algorithm1 import algorithm1
from repro.core.boundary import boundary_graph
from repro.core.complete_cut import complete_cut, optimal_completion_size
from repro.core.dual_cut import double_bfs_cut, partial_bipartition, random_longest_bfs_path
from repro.core.exact import branch_and_bound_min_cut
from repro.core.granularize import granularize, project_partition
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from repro.core.kway import recursive_bisection
from repro.core.validation import (
    check_bipartition,
    check_boundary_graph,
    check_completion,
    check_graph_cut,
    check_partial_bipartition,
)
from repro.io import hypergraph_from_json, hypergraph_to_json, parse_hgr, format_hgr
from repro.metrics.cut import cutsize
from tests.conftest import connected_hypergraphs, hypergraphs


class TestFullPipelineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(connected_hypergraphs())
    def test_every_stage_invariant(self, h):
        """Run all of Algorithm I's stages and check every invariant."""
        ig = intersection_graph(h)
        g = ig.graph
        rng = random.Random(0)
        u, v, _ = random_longest_bfs_path(g, rng=rng)
        if u == v:
            return
        for mode in ("balanced", "level"):
            cut = double_bfs_cut(g, u, v, rng=rng, mode=mode)
            check_graph_cut(g, cut)
            partial = partial_bipartition(ig, cut)
            check_partial_bipartition(ig, cut, partial)
            bg = boundary_graph(g, cut)
            check_boundary_graph(ig, cut, bg)
            completion = complete_cut(bg)
            check_completion(bg, completion)
            # The greedy can exceed the optimum by more than one per
            # component (hypothesis found a connected G' with greedy 7 vs
            # optimum 5, so the paper's "within one of optimum" theorem
            # does not hold unconditionally); assert only what is provable:
            # the exact König bound from below, and maximality — every
            # loser must be justified by an adjacent winner, else it could
            # have been a winner itself.
            assert completion.num_losers >= optimal_completion_size(bg)
            winners = completion.winners
            for loser in completion.losers:
                assert any(n in winners for n in bg.graph.neighbors_view(loser))

    @settings(max_examples=30, deadline=None)
    @given(hypergraphs(weighted=True))
    def test_algorithm1_weighted_instances(self, h):
        result = algorithm1(h, num_starts=3, seed=0, weighted_balance=True)
        check_bipartition(result.bipartition)

    @settings(max_examples=20, deadline=None)
    @given(hypergraphs(max_vertices=10, max_edges=10))
    def test_heuristic_vs_exact_sandwich(self, h):
        """exact <= heuristic; heuristic valid; exact respects constraints."""
        exact = branch_and_bound_min_cut(h)
        heur = algorithm1(h, num_starts=5, seed=0)
        assert exact.cutsize <= heur.cutsize
        check_bipartition(exact)
        check_bipartition(heur.bipartition)


class TestConservationLaws:
    @settings(max_examples=30, deadline=None)
    @given(hypergraphs())
    def test_cutsize_side_symmetric(self, h):
        result = algorithm1(h, num_starts=2, seed=1)
        bp = result.bipartition
        assert cutsize(h, bp.left) == cutsize(h, bp.right)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(weighted=True))
    def test_granularize_partition_project_round_trip(self, h):
        grains = granularize(h, grain=1.0)
        result = algorithm1(grains.hypergraph, num_starts=2, seed=0)
        back = project_partition(grains, result.bipartition)
        assert back.left | back.right == set(h.vertices)
        assert back.left and back.right or h.num_vertices < 2

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(), st.integers(2, 4))
    def test_kway_objectives_consistent(self, h, k):
        if h.num_vertices < k:
            return
        kp = recursive_bisection(h, k, num_starts=2, seed=0)
        # connectivity >= cutsize; SOED >= 2 * cutsize; all <= bounds
        assert kp.connectivity >= kp.cutsize
        assert kp.sum_external_degrees >= 2 * kp.cutsize
        assert kp.cutsize <= h.num_edges
        assert kp.connectivity <= h.num_edges * (k - 1)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(weighted=True))
    def test_io_preserves_partitioning_behaviour(self, h):
        """Round-tripped hypergraphs partition identically (same seed)."""
        back = hypergraph_from_json(hypergraph_to_json(h))
        a = algorithm1(h, num_starts=2, seed=3)
        b = algorithm1(back, num_starts=2, seed=3)
        assert a.cutsize == b.cutsize

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs())
    def test_hgr_round_trip_preserves_cut_structure(self, h):
        text, index = format_hgr(h)
        back = parse_hgr(text)
        # any cut maps across the relabeling with identical cutsize
        vertices = sorted(h.vertices, key=repr)
        left = set(vertices[: max(1, len(vertices) // 2)])
        mapped_left = {index[v] for v in left}
        assert cutsize(h, left) == cutsize(back, mapped_left)


class TestCutStateAgainstBipartition:
    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(weighted=True), st.lists(st.integers(0, 12), max_size=25))
    def test_weighted_cutsize_tracks(self, h, moves):
        vertices = h.vertices
        state = CutState(h, set(vertices[: max(1, len(vertices) // 2)]))
        for m in moves:
            v = m % len(vertices)
            if state.side_sizes[state.side[v]] > 1:  # keep both sides non-empty
                state.apply_move(v)
        bp = state.to_bipartition()
        assert state.cutsize == bp.cutsize
        assert state.weighted_cutsize == bp.weighted_cutsize
        assert state.weight_imbalance() == pytest.approx(bp.weight_imbalance)
