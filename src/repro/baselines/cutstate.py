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
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping, Set

from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition

Vertex = Hashable
EdgeName = Hashable

LEFT = 0
RIGHT = 1

#: Pin count at which CutState interns the netlist into flat numpy arrays
#: and vectorizes pin-count / initial-gain computation.  Gains and pin
#: counts are integers, so the vectorized results are bit-identical to
#: the per-vertex loops; the threshold is a pure performance knob.
VECTORIZE_MIN_PINS = 4096


class CutState:
    """Mutable two-way assignment with O(pins)-per-move cut maintenance.

    Parameters
    ----------
    hypergraph:
        The netlist being partitioned.
    left:
        Initial left side; everything else starts on the right.

    Notes
    -----
    ``cutsize`` counts crossing hyperedges (unweighted), matching the
    paper's objective; ``weighted_cutsize`` tracks edge weights in
    parallel for the weighted variants.
    """

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
        # Interned flat-array view of the (immutable during a run)
        # netlist, built once for large instances: vertex order, edge
        # order, and the concatenated pin slots per edge.  Powers the
        # vectorized pin counting below and :meth:`all_gains`.
        self._arrays = None
        if hypergraph.num_pins >= VECTORIZE_MIN_PINS:
            self._build_arrays()
        if self._arrays is not None:
            import numpy as np

            verts, vidx, names, sizes, eptr, pins_flat = self._arrays
            side_np = self._side_array()
            # Per-edge right-pin counts by prefix-sum differencing over
            # the concatenated pin sides (integer arithmetic — exact).
            cs = np.concatenate(([0], np.cumsum(side_np[pins_flat], dtype=np.int64)))
            cright = cs[eptr[1:]] - cs[eptr[:-1]]
            cleft = sizes - cright
            is_cut = (cleft > 0) & (cright > 0)
            self.cutsize = int(is_cut.sum())
            cl_list = cleft.tolist()
            cr_list = cright.tolist()
            cut_list = is_cut.tolist()
            # Weighted cutsize accumulates in edge-name order, exactly
            # like the per-edge loop (float addition order matters).
            for k, name in enumerate(names):
                self.pins[name] = [cl_list[k], cr_list[k]]
                if cut_list[k]:
                    self.weighted_cutsize += hypergraph.edge_weight(name)
        else:
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

    def _build_arrays(self) -> None:
        """Intern the netlist into flat numpy arrays (one-time cost)."""
        import numpy as np

        h = self.h
        verts = h.vertices
        vidx = {v: i for i, v in enumerate(verts)}
        names = h.edge_names
        sizes = np.fromiter(
            (h.edge_size(n) for n in names), count=len(names), dtype=np.int64
        )
        eptr = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(sizes, out=eptr[1:])
        pins_flat = np.fromiter(
            (vidx[p] for n in names for p in h.edge_members(n)),
            count=int(eptr[-1]),
            dtype=np.int64,
        )
        self._arrays = (verts, vidx, names, sizes, eptr, pins_flat)

    def _side_array(self):
        """Current side per interned vertex (int8 numpy array)."""
        import numpy as np

        verts = self._arrays[0]
        side = self.side
        return np.fromiter((side[v] for v in verts), count=len(verts), dtype=np.int8)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def all_gains(self) -> dict[Vertex, int] | None:
        """All single-move gains at once, or ``None`` when not interned.

        Bit-identical to calling :meth:`gain` per vertex (pure integer
        arithmetic), but computed in a handful of array passes over the
        flat pin arrays.  Does **not** bump ``evaluations`` — callers
        replacing per-vertex ``gain()`` loops account for that
        themselves so the cost proxy stays comparable.
        """
        if self._arrays is None:
            return None
        import numpy as np

        verts, vidx, names, sizes, eptr, pins_flat = self._arrays
        side_np = self._side_array()
        pin_side = side_np[pins_flat]
        cs = np.concatenate(([0], np.cumsum(pin_side, dtype=np.int64)))
        cright = cs[eptr[1:]] - cs[eptr[:-1]]
        cleft = sizes - cright
        own = np.where(pin_side == 0, np.repeat(cleft, sizes), np.repeat(cright, sizes))
        oth = np.where(pin_side == 0, np.repeat(cright, sizes), np.repeat(cleft, sizes))
        contrib = np.where(oth == 0, -1, np.where(own == 1, 1, 0))
        # bincount-with-weights sums small integers exactly in float64.
        gains = np.bincount(pins_flat, weights=contrib, minlength=len(verts))
        gains_list = gains.astype(np.int64).tolist()
        return {v: gains_list[i] for i, v in enumerate(verts)}

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

    def weighted_gain(self, v: Vertex) -> float:
        """Weighted-cutsize decrease if ``v`` moved."""
        s = self.side[v]
        other = 1 - s
        g = 0.0
        for name in self.h.incident_edges(v):
            counts = self.pins[name]
            if counts[other] == 0:
                g -= self.h.edge_weight(name)
            elif counts[s] == 1:
                g += self.h.edge_weight(name)
        self.evaluations += 1
        return g

    def swap_gain(self, a: Vertex, b: Vertex) -> int:
        """Exact cutsize decrease for swapping ``a`` and ``b`` (KL pairs).

        ``gain(a) + gain(b)`` miscounts edges containing both; see
        :meth:`shared_edge_correction`.
        """
        if self.side[a] == self.side[b]:
            raise ValueError("swap requires vertices on opposite sides")
        return self.gain(a) + self.gain(b) + self.shared_edge_correction(a, b)

    def shared_edge_correction(self, a: Vertex, b: Vertex) -> int:
        """What to add to ``gain(a) + gain(b)`` to get the swap gain.

        ``a`` and ``b`` must be on opposite sides.  An edge containing
        both stays cut through the swap (each side loses one pin and
        gains one), but each single-move gain claims +1 for it when its
        vertex is the last pin on its side; the correction takes those
        claims back.  Zero when the two share no edge.  Not counted in
        ``evaluations``.
        """
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

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def to_bipartition(self) -> Bipartition:
        """Snapshot the current assignment as an immutable Bipartition."""
        return Bipartition(self.h, self.left, self.right)

    def snapshot(self) -> Mapping[Vertex, int]:
        """Copy of the current side map (for best-prefix rollback)."""
        return dict(self.side)

    def restore(self, snapshot: Mapping[Vertex, int]) -> None:
        """Return to a previously snapshotted assignment."""
        for v, s in snapshot.items():
            if self.side[v] != s:
                self.apply_move(v)

    def validate(self) -> None:
        """Recompute everything from scratch; raise on drift (test hook)."""
        fresh = CutState(self.h, self.left)
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
