"""Min-cut Kernighan–Lin for hypergraphs (Table 2's "MinCut-KL" column).

Kernighan–Lin (1970) improves a bisection through *passes*: every pass
tentatively swaps vertex pairs — each vertex at most once — always taking
the best-gain available swap (even when negative, to climb out of shallow
minima), then rolls back to the best prefix of the swap sequence.  The
netlist adaptation follows Schweikert–Kernighan: gains are computed on
hyperedge cut counts rather than graph edges.

Pair selection
--------------
Scanning all ``|L| x |R|`` pairs per step is the textbook O(n^2 log n)
2-opt bound but cubic constants in Python; like practical CAD
implementations we shortlist the top ``k`` single-move gains per side
(default 8) and score only the ``k^2`` shortlisted pairs exactly: the
two cached single-move gains plus, when the pair shares an edge, the
shared-edge correction.  Equal gains rank by the larger ``repr``.  With
``k >= max(|L|, |R|)`` every step takes a pair of maximum swap gain over
all unlocked pairs, the exhaustive rule; tests check that by brute force
on small inputs.

Each side keeps a sorted list of int keys, one per unlocked vertex id,
``gain * n + rank``, where ``rank`` is the vertex's place in ``repr``
order (vertices with equal ``repr`` keep their vertex-list order).  Keys
are distinct, so a step's shortlist is the last ``k`` keys of each list.
A swap's gain changes come from the critical-net update of
:meth:`CutState.update_gains`, as in FM, and only the keys whose gains
changed move in their list.  The pair scan stops early once no
remaining pair can beat the best one (see :func:`_kl_pass`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Hashable
from itertools import chain

from repro import obs
from repro.baselines.cutstate import CutState, initial_state
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults

Vertex = Hashable


def kernighan_lin(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    max_passes: int = 10,
    shortlist: int = 8,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Partition ``hypergraph`` with hypergraph Kernighan–Lin.

    Parameters
    ----------
    hypergraph:
        Netlist to cut; needs at least two vertices.
    initial:
        Starting bisection (random balanced split when omitted).
    max_passes:
        Upper bound on improvement passes; the loop stops early at the
        first pass with non-positive total gain.
    shortlist:
        Single-move-gain candidates per side whose pairings are scored
        exactly each step; larger is slower and closer to textbook KL.
    seed:
        Integer seed or :class:`random.Random` (used for the initial
        split only; passes are deterministic).
    deadline:
        Wall-clock budget (``Deadline`` or seconds), checked between
        passes; on expiry the best cut so far is returned with
        ``degraded=True``.
    """
    if hypergraph.num_vertices < 2:
        raise ValueError("need at least two vertices to bipartition")
    if shortlist < 1:
        raise ValueError(f"shortlist must be >= 1, got {shortlist}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)
    degrade_reason: str | None = None
    with obs.span("baseline.kl"):
        state = initial_state(hypergraph, initial, rng)

        history: list[int] = []
        passes = 0
        for _ in range(max_passes):
            if passes > 0 and deadline is not None and deadline.expired():
                degrade_reason = f"deadline expired after {passes} KL passes"
                obs.count("baseline.kl.deadline_stops")
                break
            faults.inject("baseline.kl.pass")
            passes += 1
            improvement = _kl_pass(state, shortlist)
            history.append(state.cutsize)
            if improvement <= 0:
                break

    obs.count("baseline.kl.runs")
    obs.count("baseline.kl.passes", passes)
    obs.count("baseline.kl.evaluations", state.evaluations)
    return BaselineResult(
        bipartition=state.to_bipartition(),
        iterations=passes,
        evaluations=state.evaluations,
        history=tuple(history),
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason,
    )


def _kl_pass(state: CutState, shortlist: int) -> int:
    """One KL pass; returns the realized (rolled-back-to-best) gain.

    A step scores its shortlisted pairs in key order: a pair's swap gain
    is at most ``gain(a) + gain(b)`` (the shared-edge correction is never
    positive), and the gains fall along both shortlists, so the scan
    stops once that bound cannot beat the best pair found.  The pick is
    the one a full scan makes, and ``evaluations`` still counts two per
    shortlisted pair, scored or not, and one per vertex on the swapped
    pair's nets (the gains a refresh from scratch would recompute).
    """
    n = len(state.side)
    side = state.side
    incidence = state.incidence
    rows = state.rows
    order, rank = state.index.ranks()
    gains = [state.gain(v) for v in range(n)]
    keys: tuple[list[int], list[int]] = ([], [])
    for v in range(n):
        keys[side[v]].append(gains[v] * n + rank[v])
    left_keys, right_keys = keys
    left_keys.sort()
    right_keys.sort()
    free = [True] * n
    delta = [0] * n
    changed: list[int] = []

    swaps: list[tuple[int, int]] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while left_keys and right_keys:
        cand_left = [order[key % n] for key in reversed(left_keys[-shortlist:])]
        cand_right = [(order[key % n], key // n) for key in reversed(right_keys[-shortlist:])]
        # Two single-move gains per shortlisted pair, as swap_gain counts them.
        state.evaluations += 2 * len(cand_left) * len(cand_right)
        best_pair: tuple[int, int] | None = None
        best_gain = None
        for a in cand_left:
            gain_a = gains[a]
            if best_gain is not None and gain_a + cand_right[0][1] <= best_gain:
                break
            edges_a = set(incidence[a])
            for b, gain_b in cand_right:
                g = gain_a + gain_b
                if best_gain is not None and g <= best_gain:
                    break
                if not edges_a.isdisjoint(incidence[b]):
                    g += state.shared_edge_correction(a, b)
                if best_gain is None or g > best_gain:
                    best_gain = g
                    best_pair = (a, b)
        assert best_pair is not None and best_gain is not None
        a, b = best_pair

        affected = {a, b}
        for e in chain(incidence[a], incidence[b]):
            affected.update(rows[e])
        state.evaluations += len(affected)
        free[a] = free[b] = False
        del left_keys[bisect_left(left_keys, gains[a] * n + rank[a])]
        del right_keys[bisect_left(right_keys, gains[b] * n + rank[b])]
        state.apply_swap(a, b)
        state.update_gains((a, b), free, delta, changed)
        for u in changed:
            d = delta[u]
            if d:
                delta[u] = 0
                side_keys = keys[side[u]]
                key = gains[u] * n + rank[u]
                del side_keys[bisect_left(side_keys, key)]
                insort(side_keys, key + d * n)
                gains[u] += d
        changed.clear()

        swaps.append((a, b))
        cumulative += best_gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(swaps)

    # Roll back everything after the best prefix (KL's hallmark step).
    for a, b in reversed(swaps[best_prefix:]):
        state.apply_swap(b, a)
    return best_cumulative
