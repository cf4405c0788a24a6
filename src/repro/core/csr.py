"""Frozen CSR adjacency snapshots — the flat-array core for 100k-scale graphs.

A :class:`CSRAdjacency` is an immutable compressed-sparse-row view of a
:class:`repro.core.graph.Graph` at one version: ``indptr`` (int64, one
entry per allocated slot plus one) and ``indices`` (int32 neighbor
slots), with parallel per-slot ``weights`` and the alive slots in
insertion order in ``order``.  Mutable graphs stay exactly what they
were — ``list[set[int]]`` — and hand out snapshots lazily through
:meth:`Graph.csr`; every mutator bumps a version counter that
invalidates the cache (snapshot → mutate → resnapshot lifecycle, see
DESIGN.md).

Determinism contract
--------------------
The traversal results must be **element-for-element identical** to the
legacy pure-python walks, because cut results, tie-breaks, and the
``parallel=k`` seed streams are pinned to them.  Two properties deliver
that:

* ``from_graph`` freezes the *exact* iteration order of each internal
  neighbor set (``np.fromiter`` over the chained sets) — no sorting, no
  canonicalization.  A legacy ``for u in adj[v]`` loop and a CSR row
  slice see the same neighbors in the same sequence.
* :meth:`bfs` is level-synchronous: per level it gathers the
  concatenated adjacency of the frontier *in frontier order*, drops
  already-seen slots with a stamped visited array, and dedupes repeats
  keeping the **first occurrence**.  That is precisely the order in
  which a sequential FIFO BFS first reaches each node, so the
  concatenated levels equal the sequential visit order exactly.

Scratch reuse: the stamped ``seen`` buffer lives on the snapshot and is
reused across calls (no per-call clears); ``order``/``dist`` outputs are
freshly allocated so callers may hold results from consecutive BFS runs
side by side.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.graph import Graph


def gather_rows(
    indptr: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, gathered)``: the ``values`` rows of ``rows``, concatenated in order."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return lens, values[:0]
    cl = np.cumsum(lens)
    gather_idx = np.arange(total, dtype=np.int64) + np.repeat(starts - (cl - lens), lens)
    return lens, values[gather_idx]


class CSRAdjacency:
    """Immutable CSR snapshot of a :class:`Graph` (see module docstring)."""

    __slots__ = ("indptr", "indices", "weights", "order", "n_slots", "_seen", "_stamp")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.order = order
        self.n_slots = len(indptr) - 1
        self._seen = np.zeros(self.n_slots, dtype=np.int64)
        self._stamp = 0

    @classmethod
    def from_graph(cls, g: "Graph") -> "CSRAdjacency":
        adj = g.adjacency_view()
        cap = g.slot_capacity()
        degs = np.fromiter(map(len, adj), count=cap, dtype=np.int64)
        indptr = np.zeros(cap + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        nnz = int(indptr[cap])
        # chain.from_iterable walks the very same set objects the legacy
        # loops iterate — identical order by construction (freed slots
        # hold empty sets and contribute nothing).
        indices = np.fromiter(chain.from_iterable(adj), count=nnz, dtype=np.int32)
        weights = np.asarray(g.weights_view(), dtype=np.float64)
        order = np.fromiter(g.node_indices(), count=g.num_nodes, dtype=np.int32)
        return cls(indptr, indices, weights, order)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------

    def row(self, slot: int) -> np.ndarray:
        """Neighbors of ``slot`` in frozen set-iteration order (a view)."""
        return self.indices[self.indptr[slot] : self.indptr[slot + 1]]

    def degrees(self) -> np.ndarray:
        """Per-slot degree (freed slots report 0)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def bfs(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS from ``source``.

        Returns ``(order, dist)``: slots in the sequential FIFO visit
        order (see module docstring) and an int64 per-slot distance
        array valid only for the visited slots.
        """
        indptr = self.indptr
        indices = self.indices
        self._stamp += 1
        stamp = self._stamp
        seen = self._seen
        dist = np.empty(self.n_slots, dtype=np.int64)
        out = np.empty(len(self.order), dtype=np.int32)
        frontier = np.array([source], dtype=np.int32)
        seen[source] = stamp
        dist[source] = 0
        out[0] = source
        count = 1
        level = 0
        while frontier.size:
            level += 1
            _, cand = gather_rows(indptr, indices, frontier)
            cand = cand[seen[cand] != stamp]
            if cand.size == 0:
                break
            # First-occurrence dedupe: np.unique sorts, so recover the
            # original candidate order through the sorted first indices.
            uniq, first = np.unique(cand, return_index=True)
            frontier = cand[np.sort(first)] if uniq.size != cand.size else cand
            seen[frontier] = stamp
            dist[frontier] = level
            out[count : count + frontier.size] = frontier
            count += frontier.size
        return out[:count], dist
