"""Tests for the incremental cut-evaluation engine (CutState).

``CutState`` takes vertex ids (positions in ``hypergraph.vertices``) in
``gain``, ``apply_move`` and the swap primitives; ``ids`` maps labels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cutstate import (
    LEFT,
    RIGHT,
    CutState,
    initial_state,
    random_balanced_sides,
)
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.metrics.cut import cutsize as naive_cutsize
from repro.metrics.cut import weighted_cutsize as naive_weighted_cutsize
from tests.conftest import hypergraphs


@pytest.fixture
def square():
    return Hypergraph(
        edges={"e12": [1, 2], "e23": [2, 3], "e34": [3, 4], "e41": [4, 1]}
    )


def ids(state: CutState, *labels):
    return state.index.ids_of(labels)


class TestInitialization:
    def test_cutsize_matches_naive(self, square):
        state = CutState(square, {1, 2})
        assert state.cutsize == naive_cutsize(square, {1, 2}) == 2

    def test_side_bookkeeping(self, square):
        state = CutState(square, {1})
        assert state.side_sizes == [1, 3]
        assert state.side_weights == [1.0, 3.0]
        assert state.left == {1}
        assert state.right == {2, 3, 4}

    def test_unknown_left_vertex_rejected(self, square):
        with pytest.raises(ValueError):
            CutState(square, {99})

    def test_weighted_cutsize(self):
        h = Hypergraph()
        h.add_edge([1, 2], name="x", weight=5.0)
        state = CutState(h, {1})
        assert state.weighted_cutsize == 5.0

    def test_ids_follow_vertex_order(self):
        h = Hypergraph(vertices=["b", "a", ("t", 1)])
        h.add_edge(["a", "b"])
        state = CutState(h, {"a"})
        assert state.side == [1, 0, 1]
        assert state.pins == [[1], [1]]


class TestGains:
    def test_gain_equals_delta(self, square):
        state = CutState(square, {1, 2})
        for v in range(square.num_vertices):
            before = state.cutsize
            predicted = state.gain(v)
            state.apply_move(v)
            assert before - state.cutsize == predicted
            state.apply_move(v)  # undo

    def test_swap_gain_exact(self, square):
        state = CutState(square, {1, 2})
        for a in ids(state, 1, 2):
            for b in ids(state, 3, 4):
                before = state.cutsize
                predicted = state.swap_gain(a, b)
                state.apply_swap(a, b)
                assert before - state.cutsize == predicted
                state.apply_swap(b, a)  # undo

    def test_swap_same_side_rejected(self, square):
        state = CutState(square, {1, 2})
        with pytest.raises(ValueError):
            state.swap_gain(*ids(state, 1, 2))

    def test_swap_gain_with_shared_edge(self):
        """Shared-edge correction: swapping both ends of a 2-pin net."""
        h = Hypergraph(edges={"n": [1, 2]})
        state = CutState(h, {1})
        assert state.cutsize == 1
        # swapping 1 and 2 leaves the net cut: true delta 0,
        # but gain(1)+gain(2) would claim 2.
        assert state.swap_gain(*ids(state, 1, 2)) == 0


class TestMoves:
    def test_imbalance_tracking(self, square):
        state = CutState(square, {1, 2})
        assert state.imbalance() == 0
        state.apply_move(*ids(state, 1))
        assert state.imbalance() == 2
        assert state.weight_imbalance() == 2.0

    def test_snapshot_restore(self, square):
        state = CutState(square, {1, 2})
        snap = state.snapshot()
        for v in ids(state, 1, 3):
            state.apply_move(v)
        state.restore(snap)
        assert state.left == {1, 2}
        assert state.cutsize == 2
        state.validate()

    def test_to_bipartition(self, square):
        state = CutState(square, {1, 2})
        bp = state.to_bipartition()
        assert isinstance(bp, Bipartition)
        assert bp.cutsize == state.cutsize

    def test_validate_detects_drift(self, square):
        state = CutState(square, {1, 2})
        state.cutsize += 1  # corrupt
        with pytest.raises(AssertionError):
            state.validate()


class TestHelpers:
    def test_random_balanced_sides(self, square):
        left, right = random_balanced_sides(square, random.Random(0))
        assert abs(len(left) - len(right)) <= 1
        assert left | right == set(square.vertices)

    def test_initial_state_from_bipartition(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        state = initial_state(square, bp, random.Random(0))
        assert state.left == {1, 2}

    def test_initial_state_from_set(self, square):
        state = initial_state(square, frozenset({1}), random.Random(0))
        assert state.left == {1}

    def test_initial_state_random(self, square):
        state = initial_state(square, None, random.Random(0))
        assert state.imbalance() <= 1


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(hypergraphs(), st.lists(st.integers(0, 13), min_size=1, max_size=40))
    def test_incremental_never_drifts(self, h, moves):
        rng = random.Random(0)
        left, _ = random_balanced_sides(h, rng)
        state = CutState(h, left)
        for m in moves:
            state.apply_move(m % h.num_vertices)
        state.validate()
        assert state.cutsize == naive_cutsize(h, state.left)
        assert state.weighted_cutsize == naive_weighted_cutsize(h, state.left)

    @settings(max_examples=40, deadline=None)
    @given(hypergraphs(max_edge_size=4), st.integers(0, 2**31 - 1))
    def test_swap_gain_is_realized_cut_change(self, h, seed):
        """Exact for every opposite-side pair, shared multi-pin edges included."""
        left, _ = random_balanced_sides(h, random.Random(seed))
        state = CutState(h, left)
        for a in ids(state, *sorted(state.left)):
            for b in ids(state, *sorted(state.right)):
                before = state.cutsize
                predicted = state.swap_gain(a, b)
                state.apply_swap(a, b)
                assert before - state.cutsize == predicted
                state.apply_swap(b, a)
