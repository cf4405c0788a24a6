"""Kernighan–Lin's index-space pass against the label-space reference.

``reference_kernighan_lin`` (tests/reference_baselines.py) runs the pass
that preceded the rank-key pass on the label-space ``CutState``: each
step ranks every unlocked vertex with ``heapq.nlargest`` keyed on
``(gain, repr)`` and scores every shortlisted pair with ``swap_gain``.
The current pass must take the same swaps and the same rollback, so
every observable of a run (sides, cut sizes, history, passes and the
evaluation count) is identical.
"""

from __future__ import annotations

import importlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cutstate import LEFT, RIGHT, CutState, random_balanced_sides
from repro.core.hypergraph import Hypergraph
from repro.generators.netlists import clustered_netlist
from tests.conftest import hypergraphs, labeled_hypergraphs, starts
from tests.test_baseline_differential import assert_same_run

# The package re-exports the function under the module's name.
kl_module = importlib.import_module("repro.baselines.kernighan_lin")
kernighan_lin = kl_module.kernighan_lin


@st.composite
def kl_cases(draw):
    """A hypergraph plus ``kernighan_lin`` arguments: a shortlist and a start."""
    h = draw(labeled_hypergraphs())
    n = h.num_vertices
    shortlist = draw(st.sampled_from([1, 2, 8, n, n + 3]))
    return h, shortlist, draw(starts(h))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(kl_cases())
    def test_same_run_on_small_hypergraphs(self, case):
        h, shortlist, start = case
        assert_same_run("kl", h, shortlist=shortlist, **start)

    def test_same_run_on_std_cell_1k(self):
        h = clustered_netlist(1000, 1600, technology="std_cell", seed=5)
        assert_same_run("kl", h, seed=3)


class _ExhaustiveCheck(CutState):
    """Asserts that each forward swap of a pass has maximum swap gain.

    The pass locks one vertex per side per swap, so its first
    ``min(|L|, |R|)`` swaps are forward; rollback swaps follow.
    """

    def __init__(self, hypergraph: Hypergraph, left) -> None:
        super().__init__(hypergraph, left)
        self.free = [{v for v, s in enumerate(self.side) if s == side} for side in (LEFT, RIGHT)]
        self.forward_swaps = min(map(len, self.free))
        self.checked = 0

    def apply_swap(self, a, b) -> None:
        if self.checked < self.forward_swaps:
            best = max(
                self.swap_gain(x, y) for x in self.free[LEFT] for y in self.free[RIGHT]
            )
            assert self.swap_gain(a, b) == best
            self.free[LEFT].remove(a)
            self.free[RIGHT].remove(b)
            self.checked += 1
        super().apply_swap(a, b)


class TestExhaustiveRule:
    @settings(max_examples=120, deadline=None)
    @given(hypergraphs(max_vertices=12), st.integers(0, 2**31 - 1))
    def test_full_shortlist_takes_a_best_pair_every_step(self, h, seed):
        left, right = random_balanced_sides(h, random.Random(seed))
        state = _ExhaustiveCheck(h, left)
        kl_module._kl_pass(state, max(len(left), len(right)))
        assert state.checked == state.forward_swaps
