"""Content-addressed LRU result cache with a byte budget.

Keys are the ``digest:fingerprint`` strings from
:mod:`repro.server.protocol`; values are the **canonical result bytes**
(`canonical_bytes` of the result body).  Storing bytes rather than dicts
is what makes the cache-hit byte-identity guarantee structural: a hit
response splices the stored bytes straight into the envelope, so it
cannot differ from the cold-run response it was cut from.

Eviction is LRU, driven by both an entry count and a byte budget; an
oversized single value is rejected outright rather than wiping the
cache to make room.

The cache also keeps an **alias table**: the SHA-256 of a raw request
body and its endpoint's op (:func:`body_alias`), pointing at the cache
key that body parsed to.  A request is a pure function of those bytes,
so a body seen before is answered with :meth:`ResultCache.get_alias`
before any decoding, with no ``Hypergraph`` built and no digest taken.
An alias is added (:meth:`ResultCache.add_alias`) only while its key is
cached; the table holds at most ``max_entries`` aliases, dropping the
least recently used, and an alias whose entry has been evicted is
dropped when next looked up.

Beside it sits the **hypergraph table**: the SHA-256 of a request's
``"hypergraph"`` member text, pointing at that hypergraph's digest and a
pickle of it (:meth:`ResultCache.get_hypergraph`).  The member text
alone decides the hypergraph, so a request that re-sends a known one
under new settings unpickles a private copy instead of building and
digesting it again.  Only the parser adds to it
(:meth:`ResultCache.put_hypergraph`), and only hypergraphs that built
and passed its checks; the pickles are made in this process, never read
from a client or from disk.  The table is bounded by the same two
numbers as the result entries, counted on its own: at most
``max_entries`` hypergraphs and ``max_bytes`` of pickles, dropping the
least recently used.

Counters flow two ways:

* through :mod:`repro.obs` (``server.cache.hits`` / ``.misses`` /
  ``.evictions`` / ``.insertions`` / ``.rejected`` / ``.alias_hits`` /
  ``.hypergraph_hits``)
  when observability is enabled — zero-cost when disabled, like every
  other obs site;
* into an always-on internal tally exposed by :meth:`ResultCache.stats`
  so the ``/metrics`` endpoint works even with obs off.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro import obs

__all__ = ["ResultCache", "body_alias"]


def body_alias(raw: bytes, op: str | None) -> bytes:
    """The alias-table key of request body ``raw`` sent to the endpoint of ``op``.

    ``op`` is the endpoint's pinned op (``None`` for the generic one):
    the same bytes can parse on one endpoint and be refused on another.
    """
    alias = hashlib.sha256((op or "").encode())
    alias.update(b"\0")
    alias.update(raw)
    return alias.digest()


class ResultCache:
    """Thread-safe LRU mapping of cache keys to canonical result bytes."""

    def __init__(self, max_bytes: int = 64 << 20, max_entries: int = 4096) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._aliases: OrderedDict[bytes, str] = OrderedDict()
        self._hypergraphs: OrderedDict[bytes, tuple[str, bytes]] = OrderedDict()
        self._bytes = 0
        self._hypergraph_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._insertions = 0
        self._rejected = 0
        self._alias_hits = 0
        self._hypergraph_hits = 0

    def get(self, key: str) -> bytes | None:
        """Return the cached bytes for ``key`` (refreshing LRU) or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                obs.count("server.cache.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            obs.count("server.cache.hits")
            return value

    def get_alias(self, alias: bytes) -> bytes | None:
        """The cached bytes ``alias`` points at (a hit), or None.

        A hit refreshes the alias and its entry in LRU order.  None
        counts no miss: the caller parses the body and probes
        :meth:`get`, which counts it.  An alias whose entry has left the
        cache is dropped.
        """
        with self._lock:
            key = self._aliases.get(alias)
            if key is None:
                return None
            value = self._entries.get(key)
            if value is None:
                del self._aliases[alias]
                return None
            self._aliases.move_to_end(alias)
            self._entries.move_to_end(key)
            self._hits += 1
            self._alias_hits += 1
        obs.count("server.cache.hits")
        obs.count("server.cache.alias_hits")
        return value

    def add_alias(self, alias: bytes, key: str) -> bool:
        """Point ``alias`` at ``key`` if ``key`` is cached; False if it is not.

        The table keeps at most ``max_entries`` aliases, dropping the
        least recently used.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            if len(self._aliases) > self.max_entries:
                self._aliases.popitem(last=False)
        return True

    def get_hypergraph(self, key: bytes) -> tuple[str, bytes] | None:
        """``(digest, pickle)`` of the hypergraph whose member text hashes to ``key``.

        A hit refreshes it in LRU order and counts a hypergraph hit;
        None counts nothing.
        """
        with self._lock:
            known = self._hypergraphs.get(key)
            if known is None:
                return None
            self._hypergraphs.move_to_end(key)
            self._hypergraph_hits += 1
        obs.count("server.cache.hypergraph_hits")
        return known

    def put_hypergraph(self, key: bytes, digest: str, blob: bytes) -> None:
        """Keep ``(digest, blob)`` under ``key``, dropping LRU hypergraphs to fit.

        A ``blob`` that alone exceeds the byte budget is not kept.
        """
        if len(blob) > self.max_bytes:
            return
        with self._lock:
            old = self._hypergraphs.pop(key, None)
            if old is not None:
                self._hypergraph_bytes -= len(old[1])
            self._hypergraphs[key] = (digest, blob)
            self._hypergraph_bytes += len(blob)
            while (
                self._hypergraph_bytes > self.max_bytes
                or len(self._hypergraphs) > self.max_entries
            ):
                _, (_, stale) = self._hypergraphs.popitem(last=False)
                self._hypergraph_bytes -= len(stale)

    def put(self, key: str, value: bytes) -> bool:
        """Insert ``value`` under ``key``, evicting LRU entries to fit.

        Returns False (and counts a rejection) when the value alone
        exceeds the byte budget — caching it would evict everything else
        for a single entry.
        """
        size = len(value)
        if size > self.max_bytes:
            with self._lock:
                self._rejected += 1
            obs.count("server.cache.rejected")
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += size
            self._insertions += 1
            evicted = 0
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                stale_key, stale = self._entries.popitem(last=False)
                self._bytes -= len(stale)
                evicted += 1
            self._evictions += evicted
        obs.count("server.cache.insertions")
        if evicted:
            obs.count("server.cache.evictions", evicted)
        obs.gauge("server.cache.bytes", self._bytes)
        obs.gauge("server.cache.entries", len(self._entries))
        return True

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._aliases.clear()
            self._hypergraphs.clear()
            self._bytes = 0
            self._hypergraph_bytes = 0

    def stats(self) -> dict:
        """Always-on counters for ``/metrics`` (independent of obs)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "insertions": self._insertions,
                "rejected": self._rejected,
                "aliases": len(self._aliases),
                "alias_hits": self._alias_hits,
                "hypergraphs": len(self._hypergraphs),
                "hypergraph_bytes": self._hypergraph_bytes,
                "hypergraph_hits": self._hypergraph_hits,
            }
