"""The CSR arrays of a frozen graph — the flat-array core for 100k-scale graphs.

A :class:`CSRAdjacency` holds the adjacency of a
:class:`repro.core.graph.Graph` as two flat arrays: ``indptr`` (int64,
one entry per slot plus one) and ``indices`` (int32 neighbor slots).  A
graph never changes once built, so :meth:`Graph.csr` builds its CSR
once, on first use, and every traversal of the graph runs :meth:`bfs`.

Determinism contract
--------------------
Traversal results follow the iteration order of the graph's neighbor
sets, because cut results, tie-breaks, and the ``parallel=k`` seed
streams are pinned to it.  Two properties deliver that:

* ``from_graph`` freezes the *exact* iteration order of each internal
  neighbor set (``np.fromiter`` over the chained sets) — no sorting, no
  canonicalization.  A python ``for u in adj[v]`` loop and a CSR row
  slice see the same neighbors in the same sequence.
* :meth:`bfs` is level-synchronous: per level it gathers the
  concatenated adjacency of the frontier *in frontier order*, drops
  already-seen slots with a stamped visited array, and dedupes repeats
  keeping the **first occurrence**.  That is precisely the order in
  which a sequential FIFO BFS first reaches each node, so the
  concatenated levels equal the sequential visit order exactly
  (``tests/test_csr_differential.py`` checks it against such a walk).

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
    """The CSR arrays of a :class:`Graph` (see module docstring)."""

    __slots__ = ("indptr", "indices", "n_slots", "_seen", "_stamp")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.n_slots = len(indptr) - 1
        self._seen = np.zeros(self.n_slots, dtype=np.int64)
        self._stamp = 0

    @classmethod
    def from_graph(cls, g: "Graph") -> "CSRAdjacency":
        adj = g.adjacency_view()
        n = g.num_nodes
        degs = np.fromiter(map(len, adj), count=n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        # chain.from_iterable walks the very same set objects a python
        # loop over the rows iterates — identical order by construction.
        indices = np.fromiter(chain.from_iterable(adj), count=int(indptr[n]), dtype=np.int32)
        return cls(indptr, indices)

    def degrees(self) -> np.ndarray:
        """Per-slot degree."""
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
        out = np.empty(self.n_slots, dtype=np.int32)
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
