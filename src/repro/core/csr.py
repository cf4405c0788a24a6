"""The CSR arrays of a frozen graph — the flat-array core for 100k-scale graphs.

A :class:`CSRAdjacency` holds the adjacency of a
:class:`repro.core.graph.Graph` as two flat arrays: ``indptr`` (int64,
one entry per slot plus one) and ``indices`` (int32 neighbor slots).  A
graph never changes once built: its constructor builds the CSR once,
with :meth:`CSRAdjacency.from_pairs`, and every traversal of the graph
runs :meth:`bfs` or walks the rows.

Determinism contract
--------------------
Every row lists its neighbors in ascending slot order, and every
traversal result (BFS visit orders, farthest-node tie-breaks,
components, the double-BFS race, ``G'``) follows the rows.  So a
graph's traversals are a function of its slot numbering and its edge
set alone: not of the order in which the edges were listed, and not of
any hash-table layout.  Two properties deliver that:

* :meth:`from_pairs` keys each ``(row, col)`` pair as ``row * n + col``
  and keeps the sorted distinct keys, so rows come out ascending and
  parallel pairs collapse, whatever order the pairs arrive in.
* :meth:`bfs` is level-synchronous: per level it gathers the
  concatenated adjacency of the frontier *in frontier order*, drops
  already-seen slots with a stamped visited array, and dedupes repeats
  keeping the **first occurrence**.  That is precisely the order in
  which a sequential FIFO BFS over the rows first reaches each node, so
  the concatenated levels equal the sequential visit order exactly
  (``tests/test_csr_differential.py`` checks it against such a walk).

Scratch reuse: the stamped ``seen`` buffer lives on the adjacency and is
reused across calls (no per-call clears); ``order``/``dist`` outputs are
freshly allocated so callers may hold results from consecutive BFS runs
side by side.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike


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
    def from_pairs(cls, n: int, rows: ArrayLike, cols: ArrayLike) -> "CSRAdjacency":
        """The ``n``-slot adjacency listing ``cols[k]`` in row ``rows[k]``, once each.

        Rows come out in ascending slot order and repeated pairs
        collapse.  The caller lists each undirected edge both ways.
        """
        keys = np.sort(np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64))
        # Drop repeats by comparing neighbours: np.unique took 25x as long
        # as this on a 10k-module dual's 109k pairs (numpy 2.4).
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            keys %= n
        return cls(indptr, keys.astype(np.int32))

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
