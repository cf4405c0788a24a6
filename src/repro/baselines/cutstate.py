"""Incremental cut evaluation shared by the move-based partitioners.

Kernighan–Lin, Fiduccia–Mattheyses and simulated annealing all need the
same primitive: given a current two-way assignment, what does moving one
vertex do to the cutsize — answered in time proportional to the vertex's
pin count, not the netlist size.

The classic mechanism (Fiduccia–Mattheyses, 1982) keeps, per hyperedge,
the number of pins on each side.  For vertex ``v`` on side ``s``:

* an incident edge with **zero** pins on the other side becomes cut when
  ``v`` moves  → gain contribution ``-w(e)``;
* an incident edge with exactly **one** pin on ``s`` (i.e. only ``v``)
  becomes uncut → gain contribution ``+w(e)``.

``gain(v) = Σ (+w) − Σ (−w)`` is maintained incrementally across moves.

A move changes the gains of other cells only through its *critical*
nets, those with at most two pins on the side it leaves or joins
(Fiduccia–Mattheyses' rule).  :meth:`CutState.update_gains` applies
that rule after a move or a swap and is the one way FM and KL refresh
the gains they keep: it adds each free cell's gain change into a list
over vertex ids, so neither engine recomputes a gain from scratch
mid-pass.

The state runs on the integer ids of a
:class:`~repro.core.index.HypergraphIndex`: sides are a list over vertex
ids, pin counts two lists over edge rows, and :meth:`CutState.gain`,
:meth:`CutState.apply_move` and the swap primitives take ids.  Labels
are converted only at construction and by :attr:`CutState.left`,
:attr:`CutState.right` and :meth:`CutState.to_bipartition`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Hashable, Iterable, Set

from repro.core.hypergraph import Hypergraph
from repro.core.index import HypergraphIndex
from repro.core.partition import Bipartition

Vertex = Hashable

LEFT = 0
RIGHT = 1


class CutState:
    """Mutable two-way assignment with O(pins)-per-move cut maintenance.

    Parameters
    ----------
    hypergraph:
        The netlist being partitioned.
    left:
        Initial left side, as labels; everything else starts on the right.
    index:
        ``hypergraph``'s index, when the caller already holds one (built
        here otherwise).

    Notes
    -----
    ``cutsize`` counts crossing hyperedges (unweighted), matching the
    paper's objective; ``weighted_cutsize`` is their exact total weight.
    ``pins[s][e]`` is edge row ``e``'s pin count on side ``s``; ``rows``
    and ``incidence`` are the index's edge rows and vertex rows.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        left: Iterable[Vertex],
        index: HypergraphIndex | None = None,
    ) -> None:
        self.h = hypergraph
        self.index = index = index if index is not None else HypergraphIndex(hypergraph)
        n = index.num_vertices
        side = [RIGHT] * n
        for v in index.ids_of(left):
            side[v] = LEFT
        self.side = side
        self.rows = rows = index.edge_rows()
        self.incidence = index.incidence()
        self.weights = index.weights.tolist()

        right = [sum(map(side.__getitem__, row)) for row in rows]
        left_pins = [len(row) - r for row, r in zip(rows, right)]
        self.pins = [left_pins, right]
        self.cutsize = sum(1 for l, r in zip(left_pins, right) if l and r)

        self.side_sizes = [0, 0]
        self.side_weights = [0.0, 0.0]
        for s, w in zip(side, self.weights):
            self.side_sizes[s] += 1
            self.side_weights[s] += w

        #: number of single-move gain/apply operations performed (cost proxy)
        self.evaluations = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def weighted_cutsize(self) -> float:
        """Total weight of the crossing edges (an exact sum: order-free)."""
        left, right = self.pins
        weights = self.index.edge_weights.tolist()
        return math.fsum(w for w, l, r in zip(weights, left, right) if l and r)

    def gain(self, v: int) -> int:
        """Cutsize decrease if vertex id ``v`` moved to the other side (may be < 0)."""
        s = self.side[v]
        own = self.pins[s]
        other = self.pins[1 - s]
        g = 0
        for e in self.incidence[v]:
            if other[e] == 0:
                g -= 1
            elif own[e] == 1:
                g += 1
        self.evaluations += 1
        return g

    def swap_gain(self, a: int, b: int) -> int:
        """Exact cutsize decrease for swapping ``a`` and ``b`` (KL pairs).

        ``gain(a) + gain(b)`` miscounts edges containing both; see
        :meth:`shared_edge_correction`.
        """
        if self.side[a] == self.side[b]:
            raise ValueError("swap requires vertices on opposite sides")
        return self.gain(a) + self.gain(b) + self.shared_edge_correction(a, b)

    def shared_edge_correction(self, a: int, b: int) -> int:
        """What to add to ``gain(a) + gain(b)`` to get the swap gain.

        ``a`` and ``b`` must be on opposite sides.  An edge containing
        both stays cut through the swap (each side loses one pin and
        gains one), but each single-move gain claims +1 for it when its
        vertex is the last pin on its side; the correction takes those
        claims back.  Zero when the two share no edge, and never
        positive.  Not counted in ``evaluations``.
        """
        own = self.pins[self.side[a]]
        other = self.pins[1 - self.side[a]]
        correction = 0
        for e in set(self.incidence[a]).intersection(self.incidence[b]):
            if own[e] == 1:
                correction -= 1
            if other[e] == 1:
                correction -= 1
        return correction

    @property
    def left(self) -> set[Vertex]:
        return self.index.labels_of(self.side, LEFT)

    @property
    def right(self) -> set[Vertex]:
        return self.index.labels_of(self.side, RIGHT)

    def imbalance(self) -> int:
        return abs(self.side_sizes[LEFT] - self.side_sizes[RIGHT])

    def weight_imbalance(self) -> float:
        return abs(self.side_weights[LEFT] - self.side_weights[RIGHT])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def apply_move(self, v: int) -> None:
        """Move vertex id ``v`` to the other side, updating all incremental state."""
        s = self.side[v]
        other = 1 - s
        own_pins = self.pins[s]
        other_pins = self.pins[other]
        for e in self.incidence[v]:
            own_pins[e] -= 1
            other_pins[e] += 1
            if other_pins[e] == 1:
                if own_pins[e]:
                    self.cutsize += 1
            elif own_pins[e] == 0:
                self.cutsize -= 1
        self.side[v] = other
        self.side_sizes[s] -= 1
        self.side_sizes[other] += 1
        w = self.weights[v]
        self.side_weights[s] -= w
        self.side_weights[other] += w
        self.evaluations += 1

    def apply_swap(self, a: int, b: int) -> None:
        """Swap sides of ``a`` and ``b`` (KL primitive)."""
        self.apply_move(a)
        self.apply_move(b)

    def update_gains(
        self, moved: tuple[int, ...], free: list[bool], delta: list[int], changed: list[int]
    ) -> None:
        """Add the gain changes of the move or swap just applied to ``delta``.

        ``moved`` is ``(v,)`` after :meth:`apply_move` and ``(a, b)``
        after :meth:`apply_swap`; every moved id must no longer be free.
        For each free id ``u`` on a critical net, ``delta[u]`` gains the
        change in ``gain(u)`` and ``u`` is appended to ``changed`` (once
        per contribution, so ``changed`` may repeat an id, and ``delta``
        may net to zero).  The caller applies the entries and resets
        them to zero.

        The rule is Fiduccia–Mattheyses', read off the pin counts after
        the move: a net that had 0 pins on the side ``v`` joined now
        raises every free pin's gain, one that had 1 lowers that pin's;
        a net that keeps 0 pins on the side ``v`` left lowers every free
        pin's gain, one that keeps 1 raises that pin's.  A net holding
        both ends of a swap keeps its pin counts and changes no gain.
        """
        rows = self.rows
        side = self.side
        incidence = self.incidence
        shared = ()
        if len(moved) == 2:
            shared = set(incidence[moved[0]]).intersection(incidence[moved[1]])
        for v in moved:
            to_side = side[v]
            to_pins = self.pins[to_side]
            from_pins = self.pins[1 - to_side]
            for e in incidence[v]:
                if e in shared:
                    continue
                count = to_pins[e]
                if count == 1:
                    for u in rows[e]:
                        if free[u]:
                            delta[u] += 1
                            changed.append(u)
                elif count == 2:
                    for u in rows[e]:
                        if free[u] and side[u] == to_side:
                            delta[u] -= 1
                            changed.append(u)
                            break
                count = from_pins[e]
                if count == 0:
                    for u in rows[e]:
                        if free[u]:
                            delta[u] -= 1
                            changed.append(u)
                elif count == 1:
                    for u in rows[e]:
                        if free[u] and side[u] != to_side:
                            delta[u] += 1
                            changed.append(u)
                            break

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def to_bipartition(self) -> Bipartition:
        """Snapshot the current assignment as an immutable Bipartition."""
        return self.index.bipartition(self.h, self.side)

    def snapshot(self) -> list[int]:
        """Copy of the current side list (for best-prefix rollback)."""
        return self.side.copy()

    def restore(self, snapshot: list[int]) -> None:
        """Return to a previously snapshotted assignment."""
        for v, s in enumerate(snapshot):
            if self.side[v] != s:
                self.apply_move(v)

    def validate(self) -> None:
        """Recompute everything from scratch; raise on drift (test hook)."""
        fresh = CutState(self.h, self.left, self.index)
        if fresh.cutsize != self.cutsize:
            raise AssertionError(
                f"cutsize drift: incremental={self.cutsize}, recomputed={fresh.cutsize}"
            )
        if fresh.pins != self.pins:
            raise AssertionError("pin-count drift")
        if fresh.side_sizes != self.side_sizes:
            raise AssertionError("side-size drift")


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
) -> CutState:
    """Build a CutState from a Bipartition, an explicit left side, or randomly."""
    if initial is None:
        left, _ = random_balanced_sides(hypergraph, rng)
        return CutState(hypergraph, left)
    if isinstance(initial, Bipartition):
        return CutState(hypergraph, initial.left)
    return CutState(hypergraph, initial)
