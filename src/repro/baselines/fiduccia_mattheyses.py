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
side, so balance self-corrects), move it, lock it, and add the gain
changes on its *critical* nets, which
:meth:`~repro.baselines.cutstate.CutState.update_gains` reads off the
pin counts after the move (the update KL's swaps share).  After all
cells are locked, roll back to the best prefix of the move sequence.
Passes repeat until one yields no improvement.
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


def _fm_pass(state: CutState, tolerance: float, movable: list[bool]) -> int:
    """One FM pass with rollback; returns the realized gain.

    ``heaps[s]`` holds side ``s``'s keys ``-gain * n + rank``, so its
    smallest live key is the highest-gain free vertex, ties to the
    smallest ``repr``.  A gain update pushes the vertex's new key and
    leaves the old one behind: a key is live when it equals the
    vertex's current key and the vertex is still free.

    Each step takes the live top of each side whose move passes the
    balance rule (stay within tolerance, or strictly improve the
    imbalance), and of two such tops the higher gain, ties to the
    heavier side, then to the left.  After the move,
    :meth:`CutState.update_gains` gives the changed gains.
    """
    n = len(state.side)
    order, rank = state.index.ranks()
    side = state.side
    weights = state.weights
    side_weights = state.side_weights
    free = movable.copy()
    key = [0] * n
    heaps: tuple[list[int], list[int]] = ([], [])
    for v in range(n):
        if free[v]:
            key[v] = rank[v] - state.gain(v) * n
            heaps[side[v]].append(key[v])
    for heap in heaps:
        heapq.heapify(heap)
    delta = [0] * n
    changed: list[int] = []

    moves: list[int] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while True:
        weight_left = side_weights[LEFT]
        total = weight_left + side_weights[RIGHT]
        limit = tolerance * total
        imbalance = abs(2 * weight_left - total)
        chosen = chosen_side = best_gain = -1
        for s in (LEFT, RIGHT):
            heap = heaps[s]
            while heap:
                top = heap[0]
                v = order[top % n]
                if free[v] and key[v] == top:
                    break
                heapq.heappop(heap)
            else:
                continue
            if total != 0:
                w = weights[v]
                after = abs(2 * (weight_left - w if s == LEFT else weight_left + w) - total)
                if not (after <= limit or after < imbalance):
                    continue
            gain = (rank[v] - top) // n
            if chosen < 0 or gain > best_gain or (
                gain == best_gain and side_weights[s] > side_weights[chosen_side]
            ):
                chosen, chosen_side, best_gain = v, s, gain
        if chosen < 0:
            break

        heapq.heappop(heaps[chosen_side])
        free[chosen] = False
        state.apply_move(chosen)
        state.update_gains((chosen,), free, delta, changed)
        for u in changed:
            d = delta[u]
            if d:
                delta[u] = 0
                key[u] -= d * n
                heapq.heappush(heaps[side[u]], key[u])
        changed.clear()
        moves.append(chosen)
        cumulative += best_gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(moves)

    for v in reversed(moves[best_prefix:]):
        state.apply_move(v)
    return best_cumulative
