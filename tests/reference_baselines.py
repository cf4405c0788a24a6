"""The label-space move-based baselines, kept as a test reference.

FM, KL, SA and the random cut as they ran before :class:`CutState`
moved onto the integer tables of :class:`repro.core.index.HypergraphIndex`:
a ``CutState`` keyed by vertex labels with per-edge pin counts in a
dict, FM's ``_GainBuckets`` with their ``min(bucket, key=repr)`` pick,
Kernighan–Lin's ``heapq.nlargest`` shortlist scored by ``swap_gain``
(the pass that preceded the rank-key pass), SA's dict snapshots, and a
fresh ``CutState`` per random start.  The code is that code verbatim,
except:

* ``CutState`` keeps only its per-edge loop; its numpy initialisation
  twin above ``VECTORIZE_MIN_PINS`` pins, and FM's bulk gain init over
  it, gave bit-identical pin counts and gains and are gone;
* the engine functions drop their ``obs`` counters, fault sites and deadlines,
  which never change a fault-free answer;
* methods no engine calls (``weighted_gain``, ``validate``,
  ``_GainBuckets.gain_of``) and some docstrings are left out.

``tests/test_baseline_differential.py`` and
``tests/test_kl_differential.py`` check the index-space engines against
it.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Hashable, Iterable, Mapping, Set

from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition

Vertex = Hashable
EdgeName = Hashable

LEFT = 0
RIGHT = 1


class ReferenceCutState:
    """Mutable two-way assignment with O(pins)-per-move cut maintenance."""

    def __init__(self, hypergraph: Hypergraph, left: Iterable[Vertex]) -> None:
        self.h = hypergraph
        left_set = set(left)
        self.side: dict[Vertex, int] = {
            v: (LEFT if v in left_set else RIGHT) for v in hypergraph.vertices
        }
        unknown = left_set - set(self.side)
        if unknown:
            raise ValueError(f"left side contains unknown vertices: {sorted(map(repr, unknown))}")

        #: pins per side, per edge: {edge: [count_left, count_right]}
        self.pins: dict[EdgeName, list[int]] = {}
        self.cutsize = 0
        self.weighted_cutsize = 0.0
        for name in hypergraph.edge_names:
            counts = [0, 0]
            for pin in hypergraph.edge_members(name):
                counts[self.side[pin]] += 1
            self.pins[name] = counts
            if counts[LEFT] and counts[RIGHT]:
                self.cutsize += 1
                self.weighted_cutsize += hypergraph.edge_weight(name)

        self.side_sizes = [0, 0]
        self.side_weights = [0.0, 0.0]
        for v, s in self.side.items():
            self.side_sizes[s] += 1
            self.side_weights[s] += hypergraph.vertex_weight(v)

        #: number of single-move gain/apply operations performed (cost proxy)
        self.evaluations = 0

    def gain(self, v: Vertex) -> int:
        """Cutsize decrease if ``v`` moved to the other side (may be < 0)."""
        s = self.side[v]
        other = 1 - s
        g = 0
        for name in self.h.incident_edges_view(v):
            counts = self.pins[name]
            if counts[other] == 0:
                g -= 1
            elif counts[s] == 1:
                g += 1
        self.evaluations += 1
        return g

    def swap_gain(self, a: Vertex, b: Vertex) -> int:
        """Exact cutsize decrease for swapping ``a`` and ``b`` (KL pairs)."""
        if self.side[a] == self.side[b]:
            raise ValueError("swap requires vertices on opposite sides")
        return self.gain(a) + self.gain(b) + self.shared_edge_correction(a, b)

    def shared_edge_correction(self, a: Vertex, b: Vertex) -> int:
        """What to add to ``gain(a) + gain(b)`` to get the swap gain."""
        sa = self.side[a]
        sb = 1 - sa
        correction = 0
        for name in self.h.incident_edges_view(a) & self.h.incident_edges_view(b):
            counts = self.pins[name]
            if counts[sa] == 1:
                correction -= 1
            if counts[sb] == 1:
                correction -= 1
        return correction

    @property
    def left(self) -> set[Vertex]:
        return {v for v, s in self.side.items() if s == LEFT}

    @property
    def right(self) -> set[Vertex]:
        return {v for v, s in self.side.items() if s == RIGHT}

    def imbalance(self) -> int:
        return abs(self.side_sizes[LEFT] - self.side_sizes[RIGHT])

    def weight_imbalance(self) -> float:
        return abs(self.side_weights[LEFT] - self.side_weights[RIGHT])

    def apply_move(self, v: Vertex) -> None:
        """Move ``v`` to the other side, updating all incremental state."""
        s = self.side[v]
        other = 1 - s
        for name in self.h.incident_edges(v):
            counts = self.pins[name]
            was_cut = bool(counts[LEFT] and counts[RIGHT])
            counts[s] -= 1
            counts[other] += 1
            now_cut = bool(counts[LEFT] and counts[RIGHT])
            if was_cut and not now_cut:
                self.cutsize -= 1
                self.weighted_cutsize -= self.h.edge_weight(name)
            elif now_cut and not was_cut:
                self.cutsize += 1
                self.weighted_cutsize += self.h.edge_weight(name)
        self.side[v] = other
        self.side_sizes[s] -= 1
        self.side_sizes[other] += 1
        w = self.h.vertex_weight(v)
        self.side_weights[s] -= w
        self.side_weights[other] += w
        self.evaluations += 1

    def apply_swap(self, a: Vertex, b: Vertex) -> None:
        """Swap sides of ``a`` and ``b`` (KL primitive)."""
        self.apply_move(a)
        self.apply_move(b)

    def to_bipartition(self) -> Bipartition:
        return Bipartition(self.h, self.left, self.right)

    def snapshot(self) -> Mapping[Vertex, int]:
        return dict(self.side)

    def restore(self, snapshot: Mapping[Vertex, int]) -> None:
        for v, s in snapshot.items():
            if self.side[v] != s:
                self.apply_move(v)


def random_balanced_sides(
    hypergraph: Hypergraph, rng: random.Random
) -> tuple[set[Vertex], set[Vertex]]:
    """A uniformly random bisection (|L| and |R| differ by at most one)."""
    vertices = list(hypergraph.vertices)
    rng.shuffle(vertices)
    half = len(vertices) // 2
    return set(vertices[:half]), set(vertices[half:])


def initial_state(
    hypergraph: Hypergraph,
    initial: Bipartition | Set[Vertex] | None,
    rng: random.Random,
) -> ReferenceCutState:
    if initial is None:
        left, _ = random_balanced_sides(hypergraph, rng)
        return ReferenceCutState(hypergraph, left)
    if isinstance(initial, Bipartition):
        return ReferenceCutState(hypergraph, initial.left)
    return ReferenceCutState(hypergraph, initial)


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _result(state: ReferenceCutState, iterations: int, history: list[int]) -> BaselineResult:
    return BaselineResult(
        bipartition=state.to_bipartition(),
        iterations=iterations,
        evaluations=state.evaluations,
        history=tuple(history),
    )


# ----------------------------------------------------------------------
# Fiduccia–Mattheyses
# ----------------------------------------------------------------------


class _GainBuckets:
    """Gain-indexed buckets with a lazily maintained max pointer, per side."""

    def __init__(self) -> None:
        self.buckets: list[dict[int, set[Vertex]]] = [{}, {}]
        self.max_gain: list[int | None] = [None, None]
        self.location: dict[Vertex, tuple[int, int]] = {}

    def insert(self, v: Vertex, side: int, gain: int) -> None:
        self.buckets[side].setdefault(gain, set()).add(v)
        self.location[v] = (side, gain)
        if self.max_gain[side] is None or gain > self.max_gain[side]:
            self.max_gain[side] = gain

    def remove(self, v: Vertex) -> None:
        side, gain = self.location.pop(v)
        bucket = self.buckets[side][gain]
        bucket.discard(v)
        if not bucket:
            del self.buckets[side][gain]

    def update(self, v: Vertex, delta: int) -> None:
        side, gain = self.location[v]
        self.remove(v)
        self.insert(v, side, gain + delta)

    def contains(self, v: Vertex) -> bool:
        return v in self.location

    def best(self, side: int) -> tuple[Vertex, int] | None:
        buckets = self.buckets[side]
        if not buckets:
            return None
        g = max(buckets)
        self.max_gain[side] = g
        v = min(buckets[g], key=repr)
        return v, g


def reference_fiduccia_mattheyses(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    max_passes: int = 10,
    balance_tolerance: float = 0.1,
    seed: int | random.Random | None = None,
    fixed: frozenset[Vertex] | set[Vertex] | None = None,
) -> BaselineResult:
    fixed_set = frozenset(fixed) if fixed else frozenset()
    state = initial_state(hypergraph, initial, _rng(seed))
    history: list[int] = []
    passes = 0
    for _ in range(max_passes):
        passes += 1
        improvement = _fm_pass(state, balance_tolerance, fixed_set)
        history.append(state.cutsize)
        if improvement <= 0:
            break
    return _result(state, passes, history)


def _move_allowed(state: ReferenceCutState, v: Vertex, tolerance: float) -> bool:
    """Balance rule: stay within tolerance, or strictly improve balance."""
    total = state.side_weights[LEFT] + state.side_weights[RIGHT]
    if total == 0:
        return True
    s = state.side[v]
    w = state.h.vertex_weight(v)
    new_left = state.side_weights[LEFT] + (w if s == RIGHT else -w)
    new_imbalance = abs(2 * new_left - total)
    old_imbalance = abs(2 * state.side_weights[LEFT] - total)
    if new_imbalance <= tolerance * total:
        return True
    return new_imbalance < old_imbalance


def _fm_pass(
    state: ReferenceCutState, tolerance: float, fixed: frozenset[Vertex] = frozenset()
) -> int:
    """One FM pass with rollback; returns the realized gain."""
    h = state.h
    buckets = _GainBuckets()
    for v in h.vertices:
        if v not in fixed:
            buckets.insert(v, state.side[v], state.gain(v))

    moves: list[Vertex] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    free = set(h.vertices) - fixed

    while free:
        candidates: list[tuple[int, float, int, Vertex]] = []
        for side in (LEFT, RIGHT):
            top = buckets.best(side)
            if top is None:
                continue
            v, g = top
            if _move_allowed(state, v, tolerance):
                # prefer higher gain; tie-break toward the heavier side
                candidates.append((g, state.side_weights[side], side, v))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], -item[1], item[2]))
        gain_value, _, _, chosen = candidates[0]

        buckets.remove(chosen)
        free.discard(chosen)
        _apply_with_gain_updates(state, buckets, chosen)
        moves.append(chosen)
        cumulative += gain_value
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(moves)

    for v in reversed(moves[best_prefix:]):
        state.apply_move(v)
    return best_cumulative


def _apply_with_gain_updates(
    state: ReferenceCutState, buckets: _GainBuckets, v: Vertex
) -> None:
    """Move ``v`` and apply the classic FM critical-net gain updates."""
    h = state.h
    from_side = state.side[v]
    to_side = 1 - from_side

    for name in h.incident_edges(v):
        counts = state.pins[name]
        members = h.edge_members(name)
        if counts[to_side] == 0:
            for u in members:
                if u != v and buckets.contains(u):
                    buckets.update(u, +1)
        elif counts[to_side] == 1:
            for u in members:
                if u != v and state.side[u] == to_side and buckets.contains(u):
                    buckets.update(u, -1)
                    break

    state.apply_move(v)

    for name in h.incident_edges(v):
        counts = state.pins[name]
        members = h.edge_members(name)
        if counts[from_side] == 0:
            for u in members:
                if u != v and buckets.contains(u):
                    buckets.update(u, -1)
        elif counts[from_side] == 1:
            for u in members:
                if u != v and state.side[u] == from_side and buckets.contains(u):
                    buckets.update(u, +1)
                    break


# ----------------------------------------------------------------------
# Kernighan–Lin
# ----------------------------------------------------------------------


def reference_kernighan_lin(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    max_passes: int = 10,
    shortlist: int = 8,
    seed: int | random.Random | None = None,
) -> BaselineResult:
    state = initial_state(hypergraph, initial, _rng(seed))
    history: list[int] = []
    passes = 0
    for _ in range(max_passes):
        passes += 1
        improvement = reference_kl_pass(state, shortlist)
        history.append(state.cutsize)
        if improvement <= 0:
            break
    return _result(state, passes, history)


def reference_kl_pass(state: ReferenceCutState, shortlist: int) -> int:
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


# ----------------------------------------------------------------------
# simulated annealing
# ----------------------------------------------------------------------


def reference_simulated_annealing(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    schedule=None,
    imbalance_penalty: float = 1.0,
    balance_tolerance: float = 0.1,
    seed: int | random.Random | None = None,
) -> BaselineResult:
    from repro.baselines.simulated_annealing import AnnealingSchedule

    schedule = schedule or AnnealingSchedule()
    rng = _rng(seed)
    state = initial_state(hypergraph, initial, rng)

    total_weight = hypergraph.total_vertex_weight or 1.0
    scale = imbalance_penalty * max(1, hypergraph.num_edges)

    def penalty(weight_left: float) -> float:
        frac = abs(2.0 * weight_left - total_weight) / total_weight
        return scale * frac * frac

    def move_delta(v) -> float:
        """Cost change if ``v`` moved (cut delta minus gain, plus balance)."""
        cut_delta = -state.gain(v)
        w = hypergraph.vertex_weight(v)
        shift = -w if state.side[v] == LEFT else w
        new_left = state.side_weights[LEFT] + shift
        return cut_delta + penalty(new_left) - penalty(state.side_weights[LEFT])

    vertices = list(hypergraph.vertices)

    temperature = schedule.initial_temperature
    if temperature is None:
        temperature = _calibrate_temperature(state, vertices, move_delta, rng, schedule)

    moves_per_temp = schedule.moves_per_temperature or 10 * len(vertices)
    best_snapshot = state.snapshot()
    best_cut = state.cutsize
    best_feasible = state.weight_imbalance() / total_weight <= balance_tolerance

    history: list[int] = []
    total_moves = 0
    frozen_steps = 0
    temperature_steps = 0

    while (
        temperature > schedule.min_temperature
        and total_moves < schedule.max_total_moves
        and frozen_steps < schedule.frozen_after
    ):
        accepted_any = False
        for _ in range(moves_per_temp):
            total_moves += 1
            v = vertices[rng.randrange(len(vertices))]
            if state.side_sizes[state.side[v]] <= 1:
                continue  # moving v would empty its side
            delta = move_delta(v)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                state.apply_move(v)
                accepted_any = True
                feasible = state.weight_imbalance() / total_weight <= balance_tolerance
                better = (feasible and not best_feasible) or (
                    feasible == best_feasible and state.cutsize < best_cut
                )
                if better:
                    best_snapshot = state.snapshot()
                    best_cut = state.cutsize
                    best_feasible = feasible
            if total_moves >= schedule.max_total_moves:
                break
        history.append(best_cut)
        temperature_steps += 1
        frozen_steps = 0 if accepted_any else frozen_steps + 1
        temperature *= schedule.alpha

    state.restore(best_snapshot)
    return _result(state, temperature_steps, history)


def _calibrate_temperature(state, vertices, move_delta, rng, schedule) -> float:
    sample = min(200, 5 * len(vertices))
    uphill: list[float] = []
    for _ in range(sample):
        v = vertices[rng.randrange(len(vertices))]
        delta = move_delta(v)
        if delta > 0:
            uphill.append(delta)
    if not uphill:
        return 1.0
    mean_uphill = sum(uphill) / len(uphill)
    p0 = min(max(schedule.initial_acceptance, 1e-6), 1 - 1e-6)
    return mean_uphill / -math.log(p0)


# ----------------------------------------------------------------------
# random cut
# ----------------------------------------------------------------------


def reference_random_cut(
    hypergraph: Hypergraph,
    num_starts: int = 1,
    seed: int | random.Random | None = None,
) -> BaselineResult:
    rng = _rng(seed)
    best_state: ReferenceCutState | None = None
    history: list[int] = []
    evaluations = 0
    starts_done = 0
    for _ in range(num_starts):
        left, _ = random_balanced_sides(hypergraph, rng)
        state = ReferenceCutState(hypergraph, left)
        evaluations += hypergraph.num_edges
        starts_done += 1
        if best_state is None or state.cutsize < best_state.cutsize:
            best_state = state
        history.append(best_state.cutsize)

    assert best_state is not None
    return BaselineResult(
        bipartition=best_state.to_bipartition(),
        iterations=starts_done,
        evaluations=evaluations,
        history=tuple(history),
    )
