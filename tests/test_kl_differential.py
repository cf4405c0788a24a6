"""Kernighan–Lin's rank-key pass against the pass it replaced.

``reference_kl_pass`` is the earlier ``_kl_pass``, kept verbatim: each
step ranks every unlocked vertex with ``heapq.nlargest`` keyed on
``(gain, repr)`` and scores every shortlisted pair with
``CutState.swap_gain``.  The current pass must take the same swaps and
the same rollback, so every observable of a run (sides, cut sizes, the
incremental weighted cut, history, passes and the evaluation count) is
identical.
"""

from __future__ import annotations

import heapq
import importlib
import random
from collections.abc import Hashable
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cutstate import LEFT, RIGHT, CutState, random_balanced_sides
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.generators.netlists import clustered_netlist
from tests.conftest import hypergraphs

# The package re-exports the function under the module's name.
kl_module = importlib.import_module("repro.baselines.kernighan_lin")
kernighan_lin = kl_module.kernighan_lin

Vertex = Hashable


def reference_kl_pass(state: CutState, shortlist: int) -> int:
    """One KL pass; returns the realized (rolled-back-to-best) gain."""
    h = state.h
    gains: dict[Vertex, int] = {v: state.gain(v) for v in h.vertices}
    unlocked_left = set(state.left)
    unlocked_right = set(state.right)

    swaps: list[tuple[Vertex, Vertex]] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while unlocked_left and unlocked_right:
        cand_left = heapq.nlargest(
            shortlist, unlocked_left, key=lambda v: (gains[v], repr(v))
        )
        cand_right = heapq.nlargest(
            shortlist, unlocked_right, key=lambda v: (gains[v], repr(v))
        )
        best_pair: tuple[Vertex, Vertex] | None = None
        best_gain = None
        for a in cand_left:
            for b in cand_right:
                g = state.swap_gain(a, b)
                if best_gain is None or g > best_gain:
                    best_gain = g
                    best_pair = (a, b)
        assert best_pair is not None and best_gain is not None
        a, b = best_pair

        affected = {a, b} | h.neighbors(a) | h.neighbors(b)
        state.apply_swap(a, b)
        for v in affected:
            gains[v] = state.gain(v)

        unlocked_left.discard(a)
        unlocked_right.discard(b)
        swaps.append((a, b))
        cumulative += best_gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(swaps)

    # Roll back everything after the best prefix (KL's hallmark step).
    for a, b in reversed(swaps[best_prefix:]):
        state.apply_swap(b, a)
    return best_cumulative


def _run(pass_fn, h, **kwargs):
    """Run ``kernighan_lin`` with ``pass_fn`` as its pass; also return the state."""
    states: list[CutState] = []

    def recording(state, shortlist, *ranking):
        states.append(state)
        return pass_fn(state, shortlist, *ranking)

    with mock.patch.object(kl_module, "_kl_pass", recording):
        result = kernighan_lin(h, **kwargs)
    return result, states[0]


def assert_same_run(h: Hypergraph, **kwargs) -> None:
    current_pass = kl_module._kl_pass
    new, new_state = _run(current_pass, h, **kwargs)
    ref, ref_state = _run(
        lambda state, shortlist, *ranking: reference_kl_pass(state, shortlist), h, **kwargs
    )
    assert new.bipartition.left == ref.bipartition.left
    assert new.bipartition.right == ref.bipartition.right
    assert new.cutsize == ref.cutsize
    assert new.bipartition.weighted_cutsize == ref.bipartition.weighted_cutsize
    assert new_state.weighted_cutsize == ref_state.weighted_cutsize
    assert new.history == ref.history
    assert new.iterations == ref.iterations
    assert new.evaluations == ref.evaluations


LABELS = st.one_of(
    st.integers(-40, 40),
    st.text(alphabet="abxy", min_size=0, max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from("pq")),
)


@st.composite
def labeled_hypergraphs(draw):
    """Small hypergraphs on mixed int/str/tuple labels with fractional weights."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=14, unique=True))
    h = Hypergraph(vertices=labels)
    for _ in range(draw(st.integers(1, 22))):
        size = draw(st.integers(2, min(5, len(labels))))
        pins = draw(st.lists(st.sampled_from(labels), min_size=size, max_size=size, unique=True))
        h.add_edge(pins, weight=draw(st.sampled_from([0.25, 0.5, 1.0, 1.3, 2.75])))
    return h


@st.composite
def kl_cases(draw):
    """A hypergraph plus ``kernighan_lin`` arguments: a shortlist and a start."""
    h = draw(labeled_hypergraphs())
    vertices = h.vertices
    shortlist = draw(st.sampled_from([1, 2, 8, len(vertices), len(vertices) + 3]))
    if draw(st.booleans()):
        flags = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
        left = {v for v, f in zip(vertices, flags) if f}
        if not left or len(left) == len(vertices):
            left = {vertices[0]}
        start = {"initial": Bipartition(h, left, set(vertices) - left)}
    else:
        start = {"seed": draw(st.integers(0, 2**31 - 1))}
    return h, shortlist, start


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(kl_cases())
    def test_same_run_on_small_hypergraphs(self, case):
        h, shortlist, start = case
        assert_same_run(h, shortlist=shortlist, **start)

    def test_same_run_on_std_cell_1k(self):
        h = clustered_netlist(1000, 1600, technology="std_cell", seed=5)
        assert_same_run(h, seed=3)


class _ExhaustiveCheck(CutState):
    """Asserts that each forward swap of a pass has maximum swap gain.

    The pass locks one vertex per side per swap, so its first
    ``min(|L|, |R|)`` swaps are forward; rollback swaps follow.
    """

    def __init__(self, hypergraph: Hypergraph, left) -> None:
        super().__init__(hypergraph, left)
        self.free = [set(self.left), set(self.right)]
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
        order = sorted(h.vertices, key=repr)
        rank = {v: r for r, v in enumerate(order)}
        kl_module._kl_pass(state, max(len(left), len(right)), order, rank)
        assert state.checked == state.forward_swaps
