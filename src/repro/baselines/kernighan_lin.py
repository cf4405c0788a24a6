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

Each side keeps one int64 key per unlocked vertex id, ``gain * n +
rank``, where ``rank`` is the vertex's place in ``repr`` order (vertices
with equal ``repr`` keep their vertex-list order).  Keys are distinct,
so a step's shortlist is a ``partition`` plus a ``k``-element sort, and
a swap rewrites only the keys of the neighbours whose gains it
refreshed.  The pair scan stops early once no remaining pair can beat
the best one (see :func:`_kl_pass`).
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence
from itertools import chain

import numpy as np

from repro import obs
from repro.baselines.cutstate import LEFT, RIGHT, CutState, initial_state
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
    shortlisted pair, scored or not.
    """
    n = len(state.side)
    side = state.side
    incidence = state.incidence
    rows = state.index.edge_rows()
    order, rank = state.index.ranks()
    gains = [state.gain(v) for v in range(n)]
    unlocked = [
        _SideKeys([v for v in order if side[v] == s], gains, order, rank)
        for s in (LEFT, RIGHT)
    ]

    swaps: list[tuple[int, int]] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while unlocked[LEFT] and unlocked[RIGHT]:
        cand_left = unlocked[LEFT].top(shortlist)
        cand_right = [(b, gains[b]) for b in unlocked[RIGHT].top(shortlist)]
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
        state.apply_swap(a, b)
        unlocked[LEFT].lock(a)
        unlocked[RIGHT].lock(b)
        for v in affected:
            gains[v] = state.gain(v)
            side_keys = unlocked[side[v]]
            if v in side_keys:
                side_keys.update(v, gains[v])

        swaps.append((a, b))
        cumulative += best_gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(swaps)

    # Roll back everything after the best prefix (KL's hallmark step).
    for a, b in reversed(swaps[best_prefix:]):
        state.apply_swap(b, a)
    return best_cumulative


class _SideKeys:
    """One side's unlocked vertex ids, keyed ``gain * n + rank``.

    The keys fill the front of an int64 array; ``slot`` maps each
    unlocked id to its position.  A key decodes back to its id as
    ``order[key % n]``.
    """

    def __init__(
        self,
        vertices: Sequence[int],
        gains: Sequence[int],
        order: Sequence[int],
        rank: Sequence[int],
    ) -> None:
        self.order = order
        self.rank = rank
        self.n = n = len(order)
        self.keys = np.array([gains[v] * n + rank[v] for v in vertices], dtype=np.int64)
        self.slot = {v: i for i, v in enumerate(vertices)}

    def __len__(self) -> int:
        return len(self.slot)

    def __contains__(self, v: int) -> bool:
        return v in self.slot

    def top(self, k: int) -> list[int]:
        """The (at most) ``k`` ids with the largest keys, largest first."""
        live = self.keys[: len(self.slot)]
        k = min(k, len(live))
        best = np.sort(np.partition(live, -k)[-k:])[::-1]
        return [self.order[key % self.n] for key in best.tolist()]

    def update(self, v: int, gain: int) -> None:
        self.keys[self.slot[v]] = gain * self.n + self.rank[v]

    def lock(self, v: int) -> None:
        """Drop ``v``, moving the last live key into its slot."""
        i = self.slot.pop(v)
        last = len(self.slot)
        if i < last:
            key = int(self.keys[last])
            self.keys[i] = key
            self.slot[self.order[key % self.n]] = i
