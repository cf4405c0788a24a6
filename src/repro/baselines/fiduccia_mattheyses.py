"""Fiduccia–Mattheyses partitioning (cited as [9]; also the refinement engine).

FM improves on KL by moving *single cells* instead of swapping pairs and
by keeping the free cells ordered by gain, so that selecting the best
legal move is cheap and a move only updates the gains of cells on its
*critical* nets.  The original keeps gain buckets; here each side keeps
a binary heap of int keys ``-gain * n + rank`` (``rank`` is the cell's
place in ``repr`` order), so a pick or a gain update costs O(log n) and
ties go to the smallest ``repr`` without scanning a bucket.

Pass anatomy
------------
All cells start free.  Repeatedly: take the highest-gain free cell whose
move keeps the weight balance within tolerance (ties prefer the heavier
side, so balance self-corrects), move it, lock it, and incrementally
update the gains of cells on its *critical* nets via the standard
before/after pin-count rules.  After all cells are locked, roll back to
the best prefix of the move sequence.  Passes repeat until one yields no
improvement.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Hashable

from repro import obs
from repro.baselines.cutstate import LEFT, RIGHT, CutState, initial_state
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults

Vertex = Hashable


def fiduccia_mattheyses(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    max_passes: int = 10,
    balance_tolerance: float = 0.1,
    seed: int | random.Random | None = None,
    fixed: frozenset[Vertex] | set[Vertex] | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Partition ``hypergraph`` with the Fiduccia–Mattheyses heuristic.

    Parameters
    ----------
    hypergraph:
        Netlist to cut; needs at least two vertices.
    initial:
        Starting cut (random balanced split when omitted).  When given,
        FM acts as a refiner and never returns something worse.
    max_passes:
        Upper bound on passes; stops at the first non-improving pass.
    balance_tolerance:
        Allowed weight-imbalance fraction.  Moves may exceed it only when
        they shrink the current imbalance (so unbalanced starts can heal).
    seed:
        Integer seed or :class:`random.Random` (initial split only).
    fixed:
        Vertices that must never move (terminal-propagation anchors in
        min-cut placement).  Requires ``initial`` so their sides are
        well-defined.
    deadline:
        Wall-clock budget (``Deadline`` or seconds), checked between
        passes; on expiry the best cut so far is returned with
        ``degraded=True``.
    """
    if hypergraph.num_vertices < 2:
        raise ValueError("need at least two vertices to bipartition")
    if balance_tolerance < 0:
        raise ValueError("balance_tolerance must be non-negative")
    fixed_set = frozenset(fixed) if fixed else frozenset()
    if fixed_set and initial is None:
        raise ValueError("fixed vertices require an explicit initial partition")
    unknown = fixed_set - set(hypergraph.vertices)
    if unknown:
        raise ValueError(f"fixed vertices not in hypergraph: {sorted(map(repr, unknown))}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)
    degrade_reason: str | None = None
    with obs.span("baseline.fm"):
        state = initial_state(hypergraph, initial, rng)
        movable = [True] * hypergraph.num_vertices
        for v in state.index.ids_of(fixed_set):
            movable[v] = False

        history: list[int] = []
        passes = 0
        for _ in range(max_passes):
            if passes > 0 and deadline is not None and deadline.expired():
                degrade_reason = f"deadline expired after {passes} FM passes"
                obs.count("baseline.fm.deadline_stops")
                break
            faults.inject("baseline.fm.pass")
            passes += 1
            improvement = _fm_pass(state, balance_tolerance, movable)
            history.append(state.cutsize)
            if improvement <= 0:
                break

    obs.count("baseline.fm.runs")
    obs.count("baseline.fm.passes", passes)
    obs.count("baseline.fm.evaluations", state.evaluations)
    return BaselineResult(
        bipartition=state.to_bipartition(),
        iterations=passes,
        evaluations=state.evaluations,
        history=tuple(history),
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason,
    )


def _move_allowed(state: CutState, v: int, tolerance: float) -> bool:
    """Balance rule: stay within tolerance, or strictly improve balance."""
    total = state.side_weights[LEFT] + state.side_weights[RIGHT]
    if total == 0:
        return True
    w = state.weights[v]
    new_left = state.side_weights[LEFT] + (w if state.side[v] == RIGHT else -w)
    new_imbalance = abs(2 * new_left - total)
    old_imbalance = abs(2 * state.side_weights[LEFT] - total)
    if new_imbalance <= tolerance * total:
        return True
    return new_imbalance < old_imbalance


def _fm_pass(state: CutState, tolerance: float, movable: list[bool]) -> int:
    """One FM pass with rollback; returns the realized gain.

    ``heaps[s]`` holds side ``s``'s keys ``-gain * n + rank``, so its
    smallest live key is the highest-gain free vertex, ties to the
    smallest ``repr``.  A gain update pushes the vertex's new key and
    leaves the old one behind: a key is live when it equals the
    vertex's current key and the vertex is still free.
    """
    n = len(state.side)
    order, rank = state.index.ranks()
    free = movable.copy()
    key = [0] * n
    heaps: tuple[list[int], list[int]] = ([], [])
    for v in range(n):
        if free[v]:
            key[v] = rank[v] - state.gain(v) * n
            heaps[state.side[v]].append(key[v])
    for heap in heaps:
        heapq.heapify(heap)

    moves: list[int] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while True:
        candidates: list[tuple[int, float, int, int]] = []
        for side in (LEFT, RIGHT):
            heap = heaps[side]
            while heap:
                v = order[heap[0] % n]
                if free[v] and key[v] == heap[0]:
                    break
                heapq.heappop(heap)
            else:
                continue
            if _move_allowed(state, v, tolerance):
                # prefer higher gain; tie-break toward the heavier side
                gain = (rank[v] - key[v]) // n
                candidates.append((gain, state.side_weights[side], side, v))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], -item[1], item[2]))
        gain_value, _, side, chosen = candidates[0]

        heapq.heappop(heaps[side])
        free[chosen] = False
        _apply_with_gain_updates(state, chosen, free, key, heaps)
        moves.append(chosen)
        cumulative += gain_value
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(moves)

    for v in reversed(moves[best_prefix:]):
        state.apply_move(v)
    return best_cumulative


def _apply_with_gain_updates(
    state: CutState, v: int, free: list[bool], key: list[int], heaps
) -> None:
    """Move ``v`` and apply the classic FM critical-net gain updates.

    For each net on ``v``: before the move, a net with 0 (resp. 1) pins on
    the *to* side raises (resp. lowers) neighbouring free-cell gains;
    after the move the symmetric rule applies on the *from* side.  Each
    free cell whose gain changed then gets one new heap key.
    """
    rows = state.index.edge_rows()
    side = state.side
    from_side = side[v]
    to_side = 1 - from_side
    to_pins = state.pins[to_side]
    from_pins = state.pins[from_side]
    edges = state.incidence[v]
    delta: dict[int, int] = {}

    for e in edges:
        if to_pins[e] == 0:
            for u in rows[e]:
                if free[u]:
                    delta[u] = delta.get(u, 0) + 1
        elif to_pins[e] == 1:
            for u in rows[e]:
                if free[u] and side[u] == to_side:
                    delta[u] = delta.get(u, 0) - 1
                    break

    state.apply_move(v)

    for e in edges:
        if from_pins[e] == 0:
            for u in rows[e]:
                if free[u]:
                    delta[u] = delta.get(u, 0) - 1
        elif from_pins[e] == 1:
            for u in rows[e]:
                if free[u] and side[u] == from_side:
                    delta[u] = delta.get(u, 0) + 1
                    break

    n = len(side)
    for u, d in delta.items():
        if d:
            key[u] -= d * n
            heapq.heappush(heaps[side[u]], key[u])
