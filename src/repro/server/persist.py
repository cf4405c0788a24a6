"""Crash-recoverable daemon state: the ``--state-dir`` store.

Everything the daemon learns at runtime — the content-addressed result
cache, the quarantine breaker's poison records — used to live only in
memory, so any restart turned repeat traffic back into cold O(run) work
and re-exposed the pool to keys already known to kill workers.  A
:class:`StateStore` spills both to disk as they happen and rehydrates
them on the next start:

* every **cache insert** appends a record carrying the cache key, the
  canonical result bytes, and a SHA-256 checksum of those bytes —
  rehydrated hits are byte-identical to pre-crash hits *by
  construction*, because the same stored bytes are spliced back into
  the response envelope;
* every **breaker poison vote** appends the key's failure streak and,
  when open, how long it has been open (plus the wall clock, so the
  cooldown keeps counting down across the restart); a recovery appends
  a clear tombstone.

The on-disk format is the one record log of
:mod:`repro.runtime.recordlog` (``<state-dir>/state.jsonl``) —
canonical line encoding, one durable append per record, the torn final
line dropped — with this module's record schema on top.  Where it
departs from the run journal's schema is corruption handling: each
record is independently checksummed and self-describing, so a damaged
record (bit-rot, or an armed ``server.verify`` chaos rule) is **skipped
and counted** on rehydrate, never served and never allowed to poison
the records around it.  Schema::

    {"statelog": 1, "store": "partition-server", "fingerprint": ..., "settings": {...}}
    {"kind": "cache", "key": "<digest>:<fp>", "sha256": "...", "value": "<canonical result JSON>"}
    {"kind": "breaker", "key": "...", "failures": 2, "open_elapsed": null, "wall": ...}
    {"kind": "breaker", "key": "...", "failures": 3, "open_elapsed": 0.0, "wall": ...}
    {"kind": "breaker_clear", "key": "..."}

Later records supersede earlier ones for the same ``(kind, key)``; a
superseded or cleared record is **dead**.  Once the log holds at least
:data:`COMPACT_MIN_RECORDS` records and more than :data:`COMPACT_RATIO`
of them are dead, a background thread rewrites the log with only the
live records, bounding the disk it uses.  The rewrite holds the store
lock from its read to its rename, so appends — ``record_cache`` on the
daemon's miss path included — wait for it.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path

from repro import obs
from repro.runtime import faults
from repro.runtime.journal import settings_fingerprint
from repro.runtime.recordlog import (
    LogContents,
    RecordLog,
    RecordLogError,
    encode_line,
    read_log,
)

__all__ = ["StateStore", "StateStoreError", "STATE_SCHEMA_VERSION"]

#: Bumped when the on-disk record shapes change incompatibly, or when the
#: cached answers would no longer equal a fresh run's; a store written by
#: a different schema is refused (not silently reinterpreted).  Schema 2:
#: Algorithm I's cuts follow the dual's ascending slot order, so a
#: schema-1 store holds cuts a local run no longer gives.
STATE_SCHEMA_VERSION = 2

#: The chaos site whose ``error``-mode rules flip a byte in records on
#: their way to disk (and in result bytes at the service boundary) —
#: see :func:`repro.runtime.faults.corrupt_bytes`.
CORRUPTION_SITE = "server.verify"

#: Compaction waits until the log holds this many records ...
COMPACT_MIN_RECORDS = 64
#: ... and more than this fraction of them are dead.
COMPACT_RATIO = 0.5

_STORE_NAME = "partition-server"
_SETTINGS = {"store": _STORE_NAME, "schema": STATE_SCHEMA_VERSION}
_HEADER = {
    "statelog": STATE_SCHEMA_VERSION,
    "store": _STORE_NAME,
    "fingerprint": settings_fingerprint(_SETTINGS),
    "settings": _SETTINGS,
}


class StateStoreError(RecordLogError):
    """A state dir or state log the daemon cannot open or will not adopt."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_header(path: Path, header: dict) -> None:
    if any(
        header.get(field) != _HEADER[field]
        for field in ("statelog", "store", "fingerprint")
    ):
        raise StateStoreError(
            f"state log schema {header.get('statelog')!r}/"
            f"{header.get('store')!r} is not this daemon's "
            f"(schema {STATE_SCHEMA_VERSION}, store {_STORE_NAME!r}); "
            "refusing to reinterpret foreign state",
            path=path,
        )


def _valid_cache_record(record: dict) -> bool:
    """Checksum-check one cache record; ``False`` = corrupt, skip it."""
    key = record.get("key")
    value = record.get("value")
    sha = record.get("sha256")
    return (
        isinstance(key, str)
        and isinstance(value, str)
        and isinstance(sha, str)
        and _sha256(value.encode("utf-8")) == sha
    )


def _valid_breaker_record(record: dict) -> bool:
    failures = record.get("failures")
    open_elapsed = record.get("open_elapsed")
    return (
        isinstance(record.get("key"), str)
        and isinstance(failures, int)
        and not isinstance(failures, bool)
        and failures >= 1
        and (open_elapsed is None or isinstance(open_elapsed, (int, float)))
        and isinstance(record.get("wall"), (int, float))
    )


def _fold(records: list[tuple[int, dict]]) -> tuple[dict, dict, int]:
    """Fold records into the live ones; returns ``(cache, breaker, invalid)``.

    ``cache`` and ``breaker`` map each live key to its last record —
    cache keys in the order of their last write, breaker keys in the
    order they first appeared since any clear — and ``invalid`` counts
    the records that failed validation or have an unknown kind.
    Rehydration and compaction both read the log through this one fold.
    """
    cache: dict[str, dict] = {}
    breaker: dict[str, dict] = {}
    invalid = 0
    for _lineno, record in records:
        kind = record.get("kind")
        if kind == "cache" and _valid_cache_record(record):
            cache.pop(record["key"], None)  # re-append keeps insertion order fresh
            cache[record["key"]] = record
        elif kind == "breaker" and _valid_breaker_record(record):
            breaker[record["key"]] = record
        elif kind == "breaker_clear" and isinstance(record.get("key"), str):
            breaker.pop(record["key"], None)
        else:
            invalid += 1
    return cache, breaker, invalid


class StateStore:
    """The daemon's durable state log: open, rehydrate, append, compact.

    Use :meth:`open`: it creates a fresh log when none exists, or reads
    an existing one (lenient per-record validation; corrupt records
    skipped and counted) and reopens it for appending.  The loaded
    state is exposed as :attr:`cache_entries` (``(key, value_bytes)``
    in append order — replay them through ``ResultCache.put`` oldest
    first so LRU order survives too) and :attr:`breaker_entries`
    (``(key, failures, open_elapsed)`` with the crash downtime already
    folded into ``open_elapsed``).

    All appends are thread-safe; compaction runs on a background thread
    and atomically replaces the log file, so a crash mid-compaction
    leaves either the old log or the new one, never a hybrid.
    """

    def __init__(self, path: Path, log: RecordLog) -> None:
        self.path = path
        self._log = log
        self._lock = threading.Lock()
        self._live: set[tuple[str, str]] = set()
        self._records = 0  # durable records (header excluded)
        self._corrupt_skipped = 0
        self._compactions = 0
        self._compact_thread: threading.Thread | None = None
        self._closed = False
        self.cache_entries: list[tuple[str, bytes]] = []
        self.breaker_entries: list[tuple[str, int, float | None]] = []

    # ------------------------------------------------------------------
    # Construction / rehydration

    @classmethod
    def open(cls, state_dir: str | os.PathLike) -> "StateStore":
        """Open (creating if needed) the state log under ``state_dir``."""
        state_dir = Path(state_dir)
        try:
            state_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StateStoreError(
                f"cannot create state dir: {exc}", path=state_dir
            ) from exc
        path = state_dir / "state.jsonl"
        try:
            contents = read_log(path) if path.exists() else None
            if contents is not None and contents.header is None:
                # An empty or headerless file is not worth refusing a
                # daemon start over: recreate it and start cold.
                obs.count("server.persist.reset")
                contents = None
            if contents is None:
                return cls(path, RecordLog.create(path, _HEADER))
            _check_header(path, contents.header)
            store = cls(path, RecordLog.reopen(path, contents.durable))
        except OSError as exc:
            raise StateStoreError(f"cannot open state log: {exc}", path=path) from exc
        store._rehydrate(contents)
        return store

    def _rehydrate(self, contents: LogContents) -> None:
        cache, breaker, invalid = _fold(contents.records)
        self._corrupt_skipped = len(contents.corrupt) + invalid
        if self._corrupt_skipped:
            obs.count("server.persist.corrupt", self._corrupt_skipped)
        self._track(len(contents.records), cache, breaker)
        self.cache_entries = [
            (key, record["value"].encode("utf-8")) for key, record in cache.items()
        ]
        now = time.time()
        for key, record in breaker.items():
            open_elapsed = record["open_elapsed"]
            if open_elapsed is not None:
                # The cooldown kept counting down while the daemon was
                # dead: fold the wall-clock downtime into the elapsed
                # open time (clamped — a skewed clock must not produce
                # a key that cools for longer than it would have).
                open_elapsed = float(open_elapsed) + max(0.0, now - record["wall"])
            self.breaker_entries.append((key, record["failures"], open_elapsed))

    def _track(self, records: int, cache: dict, breaker: dict) -> None:
        """Count ``records`` durable records, of which the folded ones live."""
        self._records = records
        self._live = {("cache", key) for key in cache}
        self._live.update(("breaker", key) for key in breaker)

    # ------------------------------------------------------------------
    # Appending (the daemon's spill path)

    def record_cache(self, key: str, value: bytes) -> None:
        """Durably spill one cache insert (checksummed canonical bytes)."""
        record = {
            "kind": "cache",
            "key": key,
            "sha256": _sha256(value),
            "value": value.decode("utf-8"),
        }
        self._append(record, ("cache", key))
        obs.count("server.persist.cache_records")

    def record_breaker(
        self, key: str, failures: int, open_elapsed: float | None
    ) -> None:
        """Durably spill one breaker poison vote for ``key``."""
        record = {
            "kind": "breaker",
            "key": key,
            "failures": int(failures),
            "open_elapsed": open_elapsed,
            "wall": time.time(),
        }
        self._append(record, ("breaker", key))
        obs.count("server.persist.breaker_records")

    def record_breaker_clear(self, key: str) -> None:
        """Durably record that ``key``'s breaker state was dropped."""
        self._append({"kind": "breaker_clear", "key": key}, None)
        with self._lock:
            self._live.discard(("breaker", key))
        obs.count("server.persist.breaker_records")

    def _append(self, record: dict, live_key: tuple[str, str] | None) -> None:
        line = encode_line(record)
        # The corruption-chaos hook: an armed ``server.verify`` rule
        # flips a byte here, and the checksum/validation on the *read*
        # side must catch it (tested, never assumed).
        line = faults.corrupt_bytes(line, CORRUPTION_SITE)
        with self._lock:
            if self._closed:
                return
            self._log.append(line)
            self._records += 1
            if live_key is not None:
                self._live.add(live_key)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Compaction

    def _dead_ratio_locked(self) -> float:
        if self._records == 0:
            return 0.0
        return (self._records - len(self._live)) / self._records

    def _maybe_compact(self) -> None:
        with self._lock:
            if (
                self._closed
                or self._records < COMPACT_MIN_RECORDS
                or self._dead_ratio_locked() <= COMPACT_RATIO
                or (
                    self._compact_thread is not None
                    and self._compact_thread.is_alive()
                )
            ):
                return
            self._compact_thread = threading.Thread(
                target=self.compact, name="repro-state-compact", daemon=True
            )
            self._compact_thread.start()

    def compact(self) -> None:
        """Rewrite the log with only the live records (atomic replace).

        Reads the log back and folds it the way rehydration does —
        keeping the last record per ``(kind, key)`` and dropping
        cleared breaker keys and corrupt lines — then swaps the
        rewritten file in.  Safe to call directly; the append path
        triggers it on a background thread once the dead ratio trips.
        """
        with self._lock:
            if self._closed:
                return
            cache, breaker, _invalid = _fold(read_log(self.path).records)
            self._log.rewrite(_HEADER, [*cache.values(), *breaker.values()])
            self._track(len(cache) + len(breaker), cache, breaker)
            self._compactions += 1
            obs.count("server.persist.compactions")

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Always-on tallies for ``/metrics`` (independent of obs)."""
        with self._lock:
            return {
                "path": str(self.path),
                "records": self._records,
                "live": len(self._live),
                "dead": self._records - len(self._live),
                "corrupt_skipped": self._corrupt_skipped,
                "compactions": self._compactions,
                "compact_ratio": COMPACT_RATIO,
                "rehydrated_cache": len(self.cache_entries),
                "rehydrated_breaker": len(self.breaker_entries),
            }

    def close(self) -> None:
        thread = self._compact_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._log.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
