"""Differential tests against the exact oracles on small instances.

Two lower bounds that no heuristic may beat, swept across ≥20 seeds on
instances of at most 10 nets:

* Algorithm I's cutsize is never below the branch-and-bound optimum
  (both computed under the same "both sides non-empty" constraint);
* Complete-Cut's greedy loser count is never below the König-matching
  optimum on the boundary graph it completes (and is within one of it on
  a connected boundary graph — the paper's theorem).
"""

from __future__ import annotations

import random

import pytest

from repro.core.algorithm1 import algorithm1, run_single_start
from repro.core.complete_cut import (
    complete_cut,
    optimal_completion_losers,
    optimal_completion_size,
)
from repro.core.exact import branch_and_bound_min_cut
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph

NUM_SEEDS = 24


def tiny_instance(seed: int) -> Hypergraph:
    """Connected hypergraph with <= 10 nets and <= 10 modules."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    h = Hypergraph(vertices=range(n))
    for i in range(n - 1):  # spanning chain keeps it connected
        h.add_edge([i, i + 1])
    extra = rng.randint(0, 10 - (n - 1)) if n - 1 < 10 else 0
    for _ in range(extra):
        size = rng.randint(2, min(4, n))
        h.add_edge(rng.sample(range(n), size))
    assert h.num_edges <= 10
    return h


class TestAlgorithm1NeverBeatsExact:
    @pytest.mark.parametrize("seed", range(NUM_SEEDS))
    def test_cutsize_at_least_optimum(self, seed):
        h = tiny_instance(seed)
        optimum = branch_and_bound_min_cut(h).cutsize
        result = algorithm1(h, num_starts=6, seed=seed, edge_size_threshold=None)
        assert result.cutsize >= optimum
        # Sanity: the oracle itself reports an honest cut.
        assert optimum >= 0

    @pytest.mark.parametrize("seed", range(NUM_SEEDS))
    def test_every_single_start_at_least_optimum(self, seed):
        h = tiny_instance(seed)
        optimum = branch_and_bound_min_cut(h).cutsize
        result = algorithm1(h, num_starts=6, seed=seed, edge_size_threshold=None)
        for record in result.starts:
            assert record.cutsize >= optimum

    def test_heuristic_finds_optimum_somewhere(self):
        """Not a guarantee — but across the sweep the heuristic should hit
        the exact optimum on at least a handful of these tiny instances;
        zero hits would mean the differential harness is wired wrong."""
        hits = 0
        for seed in range(NUM_SEEDS):
            h = tiny_instance(seed)
            optimum = branch_and_bound_min_cut(h).cutsize
            result = algorithm1(h, num_starts=6, seed=seed, edge_size_threshold=None)
            hits += result.cutsize == optimum
        assert hits >= NUM_SEEDS // 3


class TestCompleteCutKonigBound:
    def boundaries(self):
        """Boundary graphs harvested from real single-start runs."""
        out = []
        for seed in range(NUM_SEEDS):
            h = tiny_instance(seed)
            dual = intersection_graph(h)
            if dual.graph.num_nodes < 2:
                continue
            trace = run_single_start(dual, h, random.Random(seed))
            if not trace.boundary.is_trivial():
                out.append((seed, trace.boundary))
        assert len(out) >= 20
        return out

    def test_greedy_never_below_konig_optimum(self):
        for seed, bg in self.boundaries():
            completion = complete_cut(bg, rng=random.Random(seed))
            optimum = optimal_completion_size(bg)
            assert completion.num_losers >= optimum, f"seed {seed}"

    def test_within_one_of_optimum_on_connected_boundary(self):
        """The paper's Theorem: greedy is within 1 of optimal when G' is
        connected.  Our harvested boundary graphs may be disconnected, so
        restrict to the connected ones."""
        checked = 0
        for seed, bg in self.boundaries():
            g = bg.graph
            start = next(iter(bg.nodes))
            order, _ = g.bfs_order_from(g.index_of(start))
            reachable = {g.label_of(i) for i in order.tolist()}
            if reachable != set(bg.nodes):
                continue
            completion = complete_cut(bg, rng=random.Random(seed))
            assert completion.num_losers <= optimal_completion_size(bg) + 1
            checked += 1
        assert checked >= 5

    def test_konig_losers_form_a_vertex_cover(self):
        """The exact loser set must cover every boundary edge — otherwise
        some hyperedge would be forced to cross without being counted."""
        for _, bg in self.boundaries():
            losers = optimal_completion_losers(bg)
            for u in bg.left:
                for w in bg.graph.neighbors_view(u):
                    assert u in losers or w in losers

    def test_algorithm1_losers_never_below_konig(self):
        """End-to-end: the completion inside a full single start obeys the
        bound as well (same boundary graph, same invariant)."""
        for seed in range(NUM_SEEDS):
            h = tiny_instance(seed)
            dual = intersection_graph(h)
            if dual.graph.num_nodes < 2:
                continue
            trace = run_single_start(dual, h, random.Random(seed))
            bound = optimal_completion_size(trace.boundary)
            assert trace.completion.num_losers >= bound
