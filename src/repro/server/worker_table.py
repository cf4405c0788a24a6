"""A pool worker's hypergraphs: each member text unpickled and prepared once.

The daemon's cache keeps a hypergraph table (:mod:`repro.server.cache`):
the SHA-256 of a request's ``"hypergraph"`` member text, pointing at
that hypergraph's entry (digest, pickle and verification view).  Every
request carries its key and entry, and crosses to its pool worker with
the entry's pickle standing for its hypergraph
(:class:`~repro.server.protocol.ServiceRequest`).  Each
worker keeps a :class:`WorkerTable`, a bounded LRU from the key to the
frozen hypergraph it unpickled for it.  A later request with the same
member text (another seed, another engine) runs on that hypergraph
again: no unpickle, and Algorithm I's preparation (the filtered
hypergraph, the dual and its components) is already kept on it.

The key is the member text's hash, never the content digest: the digest
ignores vertex and edge order, and Algorithm I's cut depends on them.

Bounds: at most ``max_entries`` entries and ``max_bytes`` of charged
size, each worker counting its own.  Under a memory budget the charged
size also stays within the budget less what the worker held when its
table started.  An entry is charged an upper estimate of its resident
size (:func:`entry_charge`), not its pickle length, and is kept only
once a request on it has succeeded, so what Algorithm I kept on it is
complete.

A table belongs to the process that first used it: a worker forked
from the daemon starts with an empty one, and the daemon's own copy is
filled only by a pool that runs requests in-process (no ``os.fork``).
A worker runs one request at a time, so the table takes no lock.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict

from repro.core.algorithm1 import kept_duals
from repro.core.hypergraph import Hypergraph
from repro.runtime import memory

__all__ = ["WorkerTable", "entry_charge"]

#: Bytes charged per pickle byte for the unpickled hypergraph, and again
#: for the tables of each Algorithm I preparation it keeps.  Tracemalloc
#: measured 11-15 for the hypergraph and at most 9 for a preparation's
#: tables, random and std-cell hypergraphs of 150-10k modules.
PER_PICKLE_BYTE = 16

#: Bytes charged per CSR entry of each kept dual, whose row lists hold a
#: python int per entry: tracemalloc measured at most 42.  Without this
#: term a hypergraph whose modules sit on many nets would be charged a
#: small fraction of its dual, which took 135 times its pickle on one
#: such test input.  With both terms, charges came to 1.15-1.56 times
#: the traced allocation of unpickling a hypergraph and running
#: algorithm1 and flow on it (tests/test_server_worker_table.py).
PER_DUAL_ENTRY = 48


def entry_charge(blob: bytes, hypergraph: Hypergraph) -> int:
    """The bytes a table charges for ``hypergraph``, unpickled from ``blob``."""
    duals = kept_duals(hypergraph)
    entries = sum(2 * dual.num_edges for dual in duals)
    return PER_PICKLE_BYTE * len(blob) * (1 + len(duals)) + PER_DUAL_ENTRY * entries


class WorkerTable:
    """Bounded LRU of frozen hypergraphs, keyed by hypergraph-table key."""

    def __init__(
        self, max_entries: int, max_bytes: int, memory_limit_bytes: int | None = None
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.memory_limit_bytes = memory_limit_bytes
        self._pid: int | None = None
        self._entries: OrderedDict[bytes, tuple[Hypergraph, int]] = OrderedDict()
        self._bytes = 0
        self._budget = max_bytes

    def _own(self) -> None:
        """Empty the table when this process did not fill it (a fork's copy)."""
        pid = os.getpid()
        if self._pid == pid:
            return
        self._pid = pid
        self._entries = OrderedDict()
        self._bytes = 0
        self._budget = self.max_bytes
        if self.memory_limit_bytes is not None:
            held = memory.rss_bytes(pid) or 0
            self._budget = max(0, min(self._budget, self.memory_limit_bytes - held))

    def get(self, key: bytes, blob: bytes) -> tuple[Hypergraph, bool]:
        """``(hypergraph, hit)``: the kept one for ``key``, or ``blob`` unpickled and frozen."""
        self._own()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0], True
        return pickle.loads(blob).freeze(), False

    def keep(self, key: bytes, blob: bytes, hypergraph: Hypergraph) -> None:
        """Keep ``hypergraph`` under ``key`` at its current charge, after a request succeeded.

        Drops least recently used entries to fit; an entry that alone
        exceeds the byte budget is not kept.
        """
        self._own()
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        charge = entry_charge(blob, hypergraph)
        if charge > self._budget:
            return
        self._entries[key] = (hypergraph, charge)
        self._bytes += charge
        while self._bytes > self._budget or len(self._entries) > self.max_entries:
            _, (_, stale) = self._entries.popitem(last=False)
            self._bytes -= stale

    def stats(self) -> dict:
        """Entries, charged bytes and the byte budget of this process's table."""
        self._own()
        return {"entries": len(self._entries), "bytes": self._bytes, "budget": self._budget}
