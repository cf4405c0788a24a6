"""Unit tests for the crash-recovery and integrity layers.

Covers, without a live daemon (the end-to-end half lives in
``tests/test_server_recovery.py``):

* :class:`repro.server.persist.StateStore` — round-trip rehydration,
  last-record-wins semantics, per-record checksum validation (corrupt
  records skipped and counted, never served), truncated-tail tolerance,
  foreign-schema refusal, compaction, and breaker-downtime folding;
* :class:`repro.server.admission.QuarantineBreaker` persistence hooks —
  ``export_key`` / ``restore_key`` clock translation and the
  record-returns-cleared contract;
* :mod:`repro.metrics.verify` — the independent re-verification that
  backs the service's boundary integrity gate;
* :func:`repro.runtime.faults.corrupt_bytes` — the digit-flip
  corruption chaos hook;
* :class:`repro.server.cache.ResultCache` under a concurrent hammer —
  the byte/entry accounting invariants hold at every cap.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import Hypergraph
from repro.engines import run_engine
from repro.io.json_io import _encode_label
from repro.metrics import (
    IntegrityError,
    verify_partition_body,
    verify_place_body,
)
from repro.runtime import faults
from repro.runtime.recordlog import encode_line, read_log
from repro.server import persist
from repro.server.admission import POISON_ERROR_TYPES, QuarantineBreaker
from repro.server.cache import ResultCache
from repro.server.persist import StateStore, StateStoreError
from repro.server.protocol import Quarantined, canonical_bytes

pytestmark = pytest.mark.usefixtures("no_leaked_handles")


@pytest.fixture(autouse=True)
def _no_faults():
    faults.configure(None)
    yield
    faults.configure(None)


# ----------------------------------------------------------------------
# StateStore
# ----------------------------------------------------------------------


class TestStateStoreRoundTrip:
    def test_fresh_store_is_empty(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == []
            assert store.breaker_entries == []
            assert store.stats()["records"] == 0

    def test_cache_and_breaker_round_trip(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("d1:f1", b'{"cutsize":3}')
            store.record_cache("d2:f2", b'{"cutsize":7}')
            store.record_breaker("d3:f3", 3, 0.0)
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == [
                ("d1:f1", b'{"cutsize":3}'),
                ("d2:f2", b'{"cutsize":7}'),
            ]
            [(key, failures, open_elapsed)] = store.breaker_entries
            assert key == "d3:f3"
            assert failures == 3
            # Wall-clock downtime folds into the open time.
            assert open_elapsed >= 0.0

    def test_last_record_wins_and_refreshes_order(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("a", b'{"v":1}')
            store.record_cache("b", b'{"v":2}')
            store.record_cache("a", b'{"v":3}')
        with StateStore.open(tmp_path) as store:
            # "a" was rewritten after "b": it rehydrates as the fresher
            # entry (the order ResultCache replays into LRU order).
            assert store.cache_entries == [
                ("b", b'{"v":2}'),
                ("a", b'{"v":3}'),
            ]

    def test_breaker_clear_tombstone_wins(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_breaker("k", 3, 1.0)
            store.record_breaker_clear("k")
        with StateStore.open(tmp_path) as store:
            assert store.breaker_entries == []

    def test_closed_breaker_record_round_trips_none(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_breaker("k", 2, None)  # failing, not yet open
        with StateStore.open(tmp_path) as store:
            assert store.breaker_entries == [("k", 2, None)]

    def test_downtime_folds_into_open_elapsed(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_breaker("k", 3, 1.0)
        path = tmp_path / "state.jsonl"
        # Simulate 5 s of daemon downtime by backdating the record's
        # wall timestamp (records are canonical JSON lines).
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["wall"] -= 5.0
        path.write_bytes(lines[0] + encode_line(record))
        with StateStore.open(tmp_path) as store:
            [(_key, _failures, open_elapsed)] = store.breaker_entries
            assert open_elapsed == pytest.approx(6.0, abs=1.0)


#: The state log written by :func:`_write_pinned_log`, line by line.
PINNED_HEADER = (
    '{"fingerprint":"968b0f7acbfe3cc0a998b4b051133e4b7f03e87d56bdebc9a66a1066eab6f0b7",'
    '"settings":{"schema":2,"store":"partition-server"},"statelog":2,'
    '"store":"partition-server"}\n'
)
#: The header a schema-1 daemon wrote; its cached cuts followed the old
#: neighbour order of the dual.
SCHEMA1_HEADER = (
    '{"fingerprint":"44646ca751164086f63e28c660fcd13b20ab6d46db6175ffaa375ce0b6f582b8",'
    '"settings":{"schema":1,"store":"partition-server"},"statelog":1,'
    '"store":"partition-server"}\n'
)
PINNED_D1_V3 = (
    '{"key":"d1:f1","kind":"cache","sha256":"a72135145f8b08053bba1fb6f563ca96'
    '1f50521509b922b1f552c6a1f6d387da",'
    '"value":"{\\"cutsize\\":3}"}\n'
)
PINNED_D4 = (
    '{"key":"d4:f4","kind":"cache","sha256":"f0c5f49a3ea60094df001a90ac1d5e7d'
    '27a9aa60dfac10ee235764f2a32c9d8a",'
    '"value":"{\\"cutsize\\":5}"}\n'
)
PINNED_D1_V4 = (
    '{"key":"d1:f1","kind":"cache","sha256":"292c5c87285f4b19a9d87db1d3dd374c'
    '7127488129ad8da2c2832b475f49b3dd",'
    '"value":"{\\"cutsize\\":4}"}\n'
)
PINNED_D2_FAILING = (
    '{"failures":2,"key":"d2:f2","kind":"breaker","open_elapsed":null,"wall":1754650000.5}\n'
)
PINNED_D5 = (
    '{"failures":3,"key":"d5:f5","kind":"breaker","open_elapsed":0.25,"wall":1754650000.5}\n'
)
PINNED_D3 = (
    '{"failures":2,"key":"d3:f3","kind":"breaker","open_elapsed":null,"wall":1754650000.5}\n'
)
PINNED_D2_OPEN = (
    '{"failures":3,"key":"d2:f2","kind":"breaker","open_elapsed":0.5,"wall":1754650000.5}\n'
)
PINNED_D3_CLEAR = '{"key":"d3:f3","kind":"breaker_clear"}\n'


def _write_pinned_log(store: StateStore) -> None:
    """Fixed inputs: a refreshed cache key, an updated and a cleared breaker."""
    store.record_cache("d1:f1", b'{"cutsize":3}')
    store.record_cache("d4:f4", b'{"cutsize":5}')
    store.record_breaker("d2:f2", 2, None)
    store.record_breaker("d5:f5", 3, 0.25)
    store.record_breaker("d3:f3", 2, None)
    store.record_cache("d1:f1", b'{"cutsize":4}')
    store.record_breaker("d2:f2", 3, 0.5)
    store.record_breaker_clear("d3:f3")


class TestStateLogFormat:
    @pytest.fixture(autouse=True)
    def _pinned_clock(self, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1754650000.5)

    def test_on_disk_format_is_pinned(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            _write_pinned_log(store)
        assert (tmp_path / "state.jsonl").read_text().splitlines(keepends=True) == [
            PINNED_HEADER,
            PINNED_D1_V3,
            PINNED_D4,
            PINNED_D2_FAILING,
            PINNED_D5,
            PINNED_D3,
            PINNED_D1_V4,
            PINNED_D2_OPEN,
            PINNED_D3_CLEAR,
        ]

    def test_compacted_format_is_pinned(self, tmp_path):
        # Live cache records in refresh order, then live breaker records
        # in the order their keys first appeared.
        with StateStore.open(tmp_path) as store:
            _write_pinned_log(store)
            store.compact()
        assert (tmp_path / "state.jsonl").read_text().splitlines(keepends=True) == [
            PINNED_HEADER,
            PINNED_D4,
            PINNED_D1_V4,
            PINNED_D2_OPEN,
            PINNED_D5,
        ]


class TestStateStoreCorruption:
    def test_checksum_mismatch_is_skipped_and_counted(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("good", b'{"v":1}')
            store.record_cache("bad", b'{"v":2}')
        path = tmp_path / "state.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])
        assert record["key"] == "bad"
        record["value"] = '{"v":9}'  # value no longer matches sha256
        path.write_bytes(lines[0] + lines[1] + encode_line(record))
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == [("good", b'{"v":1}')]
            assert store.stats()["corrupt_skipped"] == 1

    def test_armed_corruption_site_damages_a_record_detectably(self, tmp_path):
        """The ``server.verify`` chaos rule flips a digit on the way to
        disk; the checksummed read side must drop exactly that record."""
        with StateStore.open(tmp_path) as store:
            store.record_cache("clean", b'{"cutsize":3}')
            faults.configure("server.verify=error:1", seed=3)
            store.record_cache("dirty", b'{"cutsize":7}')
            faults.configure(None)
        with StateStore.open(tmp_path) as store:
            assert ("clean", b'{"cutsize":3}') in store.cache_entries
            assert all(key != "dirty" for key, _ in store.cache_entries)
            assert store.stats()["corrupt_skipped"] == 1

    def test_truncated_tail_is_tolerated(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("a", b'{"v":1}')
        path = tmp_path / "state.jsonl"
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"cache","key":"half')  # mid-append crash
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == [("a", b'{"v":1}')]
            # The partial tail was truncated away; appends continue.
            store.record_cache("b", b'{"v":2}')
        with StateStore.open(tmp_path) as store:
            assert [key for key, _ in store.cache_entries] == ["a", "b"]

    def test_garbage_midfile_line_is_skipped_not_fatal(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("a", b'{"v":1}')
        path = tmp_path / "state.jsonl"
        header, record = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"!!! not json !!!\n" + record)
        with StateStore.open(tmp_path) as store:
            assert store.stats()["corrupt_skipped"] == 1
            store.record_cache("b", b'{"v":2}')
        with StateStore.open(tmp_path) as store:
            assert [key for key, _ in store.cache_entries] == ["a", "b"]

    def test_foreign_header_is_refused(self, tmp_path):
        path = tmp_path / "state.jsonl"
        path.write_bytes(encode_line({"journal": 1, "task": "bench"}))
        with pytest.raises(StateStoreError, match="refusing to reinterpret"):
            StateStore.open(tmp_path)

    def test_schema_1_state_dir_is_refused(self, tmp_path):
        path = tmp_path / "state.jsonl"
        path.write_text(SCHEMA1_HEADER + PINNED_D1_V3)
        with pytest.raises(StateStoreError, match="schema 1/'partition-server' is not"):
            StateStore.open(tmp_path)
        assert path.read_text() == SCHEMA1_HEADER + PINNED_D1_V3

    def test_empty_file_restarts_cold(self, tmp_path):
        path = tmp_path / "state.jsonl"
        path.write_bytes(b"")
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == []
            store.record_cache("a", b'{"v":1}')
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == [("a", b'{"v":1}')]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_append_after_any_cut_keeps_every_durable_record(
        self, tmp_path_factory, data
    ):
        # A record counts only once its newline is on disk: a cut just
        # before a newline leaves a whole JSON object that must still be
        # dropped, or the next append is glued onto its line.
        state_dir = tmp_path_factory.mktemp("torn")
        with StateStore.open(state_dir) as store:
            for key in ("a", "b", "c"):
                store.record_cache(key, b'{"v":"%s"}' % key.encode())
        path = state_dir / "state.jsonl"
        raw = path.read_bytes()
        header_end = raw.index(b"\n") + 1
        newlines = [i for i in range(header_end, len(raw)) if raw[i] == ord("\n")]
        cut = data.draw(
            st.sampled_from(newlines) | st.integers(header_end, len(raw))
        )
        path.write_bytes(raw[:cut])
        with StateStore.open(state_dir) as store:
            first = store.cache_entries
            store.record_cache("new", b'{"v":"new"}')
        with StateStore.open(state_dir) as store:
            assert store.cache_entries == first + [("new", b'{"v":"new"}')]
            assert store.stats()["corrupt_skipped"] == 0

    def test_unknown_record_kind_is_skipped(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            store.record_cache("a", b'{"v":1}')
        path = tmp_path / "state.jsonl"
        with open(path, "ab") as fh:
            fh.write(encode_line({"kind": "mystery", "key": "x"}))
        with StateStore.open(tmp_path) as store:
            assert store.cache_entries == [("a", b'{"v":1}')]
            assert store.stats()["corrupt_skipped"] == 1


class TestStateStoreCompaction:
    def test_explicit_compaction_keeps_only_live_records(self, tmp_path):
        with StateStore.open(tmp_path) as store:
            for i in range(10):
                store.record_cache("hot", b'{"v":%d}' % i)
            store.record_breaker("poison", 3, 0.0)
            store.record_breaker("healed", 2, None)
            store.record_breaker_clear("healed")
            before = (tmp_path / "state.jsonl").stat().st_size
            store.compact()
            after = (tmp_path / "state.jsonl").stat().st_size
            stats = store.stats()
            assert after < before
            assert stats["compactions"] == 1
            assert stats["records"] == stats["live"] == 2
            # The store keeps appending to the compacted log.
            store.record_cache("fresh", b'{"v":99}')
        with StateStore.open(tmp_path) as store:
            entries = dict(store.cache_entries)
            assert entries["hot"] == b'{"v":9}'
            assert entries["fresh"] == b'{"v":99}'
            assert store.breaker_entries[0][0] == "poison"

    def test_dead_ratio_triggers_background_compaction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persist, "COMPACT_MIN_RECORDS", 8)
        store = StateStore.open(tmp_path)
        try:
            for i in range(20):
                store.record_cache("same-key", b'{"v":%d}' % i)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if store.stats()["compactions"] >= 1:
                    break
                time.sleep(0.01)
            stats = store.stats()
            assert stats["compactions"] >= 1
            assert stats["dead"] < stats["records"] or stats["dead"] == 0
        finally:
            store.close()
        with StateStore.open(tmp_path) as store:
            assert dict(store.cache_entries)["same-key"] == b'{"v":19}'


# ----------------------------------------------------------------------
# QuarantineBreaker persistence hooks
# ----------------------------------------------------------------------


class TestBreakerExportRestore:
    def _clock(self):
        now = [1000.0]
        return now, (lambda: now[0])

    def test_record_reports_cleared(self):
        now, clock = self._clock()
        breaker = QuarantineBreaker(threshold=2, cooldown=10.0, clock=clock)
        assert breaker.record("k", "WorkerCrashed") is False
        assert breaker.record("k", None) is True  # tracked -> cleared
        assert breaker.record("k", None) is False  # nothing tracked

    def test_integrity_error_is_poison(self):
        assert "IntegrityError" in POISON_ERROR_TYPES
        breaker = QuarantineBreaker(threshold=1, cooldown=10.0)
        breaker.record("k", "IntegrityError")
        with pytest.raises(Quarantined):
            breaker.check("k")

    def test_export_tracks_open_elapsed(self):
        now, clock = self._clock()
        breaker = QuarantineBreaker(threshold=2, cooldown=10.0, clock=clock)
        assert breaker.export_key("k") is None
        breaker.record("k", "WorkerCrashed")
        assert breaker.export_key("k") == {"failures": 1, "open_elapsed": None}
        breaker.record("k", "WorkerCrashed")  # trips open
        now[0] += 4.0
        snapshot = breaker.export_key("k")
        assert snapshot == {"failures": 2, "open_elapsed": pytest.approx(4.0)}

    def test_restore_open_key_keeps_cooling(self):
        now, clock = self._clock()
        breaker = QuarantineBreaker(threshold=2, cooldown=10.0, clock=clock)
        breaker.restore_key("k", failures=2, open_elapsed=4.0)
        with pytest.raises(Quarantined) as excinfo:
            breaker.check("k")
        assert excinfo.value.retry_after == pytest.approx(6.0)

    def test_restore_with_expired_cooldown_admits_one_probe(self):
        now, clock = self._clock()
        breaker = QuarantineBreaker(threshold=2, cooldown=10.0, clock=clock)
        # Open for 25 s total (daemon downtime included): the cooldown
        # already served — the next check is the half-open probe, not a
        # fresh quarantine and not a forgotten key.
        breaker.restore_key("k", failures=2, open_elapsed=25.0)
        assert breaker.check("k") is True
        with pytest.raises(Quarantined):  # concurrent duplicate blocked
            breaker.check("k")
        assert breaker.record("k", None) is True  # clean probe closes it

    def test_restore_closed_key_counts_toward_threshold(self):
        now, clock = self._clock()
        breaker = QuarantineBreaker(threshold=3, cooldown=10.0, clock=clock)
        breaker.restore_key("k", failures=2, open_elapsed=None)
        assert breaker.check("k") is False  # closed: not quarantined
        breaker.record("k", "WorkerCrashed")  # third strike
        with pytest.raises(Quarantined):
            breaker.check("k")

    def test_restore_rejects_nonpositive_failures(self):
        breaker = QuarantineBreaker()
        with pytest.raises(ValueError):
            breaker.restore_key("k", failures=0, open_elapsed=None)


# ----------------------------------------------------------------------
# Independent result verification
# ----------------------------------------------------------------------


def _graph() -> Hypergraph:
    h = Hypergraph(vertices=range(8))
    for i in range(7):
        h.add_edge([i, i + 1], name=f"c{i}")
    h.add_edge([0, 4], name="x0")
    h.add_edge([2, 6], name="x1")
    return h


def _partition_body(h: Hypergraph) -> dict:
    bipartition, extras = run_engine("fm", h, seed=0, starts=2)
    return {
        "op": "partition",
        "engine": "fm",
        "digest": "d0",
        "fingerprint": "f0",
        "settings": {"seed": 0, "starts": 2},
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
        "left": sorted((_encode_label(v) for v in bipartition.left), key=repr),
        "right": sorted((_encode_label(v) for v in bipartition.right), key=repr),
        "degraded": False,
        "degrade_reason": None,
    }


class TestVerifyPartitionBody:
    def test_honest_body_passes(self):
        h = _graph()
        body = _partition_body(h)
        verify_partition_body(h, body, digest="d0", fingerprint="f0")

    def test_wrong_digest_fails_identity(self):
        h = _graph()
        body = _partition_body(h)
        with pytest.raises(IntegrityError, match="digest"):
            verify_partition_body(h, body, digest="other")

    def test_tampered_cutsize_is_caught(self):
        h = _graph()
        body = _partition_body(h)
        body["cutsize"] += 1
        with pytest.raises(IntegrityError, match="cutsize"):
            verify_partition_body(h, body)

    def test_tampered_imbalance_is_caught(self):
        h = _graph()
        body = _partition_body(h)
        body["imbalance_fraction"] = body["imbalance_fraction"] + 0.125
        with pytest.raises(IntegrityError, match="imbalance"):
            verify_partition_body(h, body)

    def test_moved_vertex_is_caught(self):
        h = _graph()
        body = _partition_body(h)
        moved = body["left"].pop()
        body["right"].append(moved)
        # The assignment is still a valid cover, but the claimed cut no
        # longer matches the recomputation (or balance shifts) — either
        # way the gate fires.
        with pytest.raises(IntegrityError):
            verify_partition_body(h, body)

    def test_dropped_vertex_is_caught(self):
        h = _graph()
        body = _partition_body(h)
        body["left"] = body["left"][:-1]
        with pytest.raises(IntegrityError, match="cover"):
            verify_partition_body(h, body)

    def test_duplicated_vertex_is_caught(self):
        h = _graph()
        body = _partition_body(h)
        body["right"].append(body["left"][0])
        with pytest.raises(IntegrityError, match="disjoint|duplicate"):
            verify_partition_body(h, body)

    def test_single_digit_flip_in_canonical_bytes_is_caught(self):
        """The exact corruption `server.verify` injects: one digit of
        the canonical bytes XOR 0x01.  Every digit position must be
        detectable via identity, cut, balance, or coverage checks."""
        h = _graph()
        body = _partition_body(h)
        data = canonical_bytes(body)
        digit_positions = [
            i for i, byte in enumerate(data) if 0x30 <= byte <= 0x39
        ]
        assert digit_positions
        rng = random.Random(7)
        for index in rng.sample(digit_positions, min(20, len(digit_positions))):
            flipped = data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]
            if flipped == data:
                continue
            tampered = json.loads(flipped)
            with pytest.raises(IntegrityError):
                verify_partition_body(
                    h,
                    tampered,
                    digest="d0",
                    fingerprint="f0",
                    settings={"seed": 0, "starts": 2},
                )


class TestVerifyPlaceBody:
    def _body(self, h: Hypergraph) -> dict:
        return {
            "op": "place",
            "digest": "d0",
            "fingerprint": "f0",
            "grid": {"rows": 2, "cols": 4},
            "positions": [
                [_encode_label(v), [v // 4, v % 4]] for v in range(8)
            ],
        }

    def test_honest_body_passes(self):
        h = _graph()
        verify_place_body(h, self._body(h), digest="d0")

    def test_out_of_grid_slot_is_caught(self):
        h = _graph()
        body = self._body(h)
        body["positions"][0][1] = [5, 0]
        with pytest.raises(IntegrityError, match="outside"):
            verify_place_body(h, body)

    def test_doubled_slot_is_caught(self):
        h = _graph()
        body = self._body(h)
        body["positions"][1][1] = list(body["positions"][0][1])
        with pytest.raises(IntegrityError, match="more than one"):
            verify_place_body(h, body)

    def test_missing_vertex_is_caught(self):
        h = _graph()
        body = self._body(h)
        body["positions"] = body["positions"][:-1]
        with pytest.raises(IntegrityError, match="cover"):
            verify_place_body(h, body)


class TestCorruptBytes:
    def test_unarmed_is_identity(self):
        data = b'{"cutsize":42}'
        assert faults.corrupt_bytes(data, "server.verify") is data

    def test_armed_flips_exactly_one_digit(self):
        faults.configure("server.verify=error:1", seed=5)
        data = b'{"cutsize":42,"n":7}'
        corrupted = faults.corrupt_bytes(data, "server.verify")
        assert corrupted != data
        assert len(corrupted) == len(data)
        diffs = [i for i, (a, b) in enumerate(zip(data, corrupted)) if a != b]
        assert len(diffs) == 1
        index = diffs[0]
        assert 0x30 <= data[index] <= 0x39  # a digit was targeted...
        assert 0x30 <= corrupted[index] <= 0x39  # ...and stayed a digit
        json.loads(corrupted)  # the line is still valid JSON

    def test_every_candidate_flip_keeps_valid_json(self, monkeypatch):
        """Flip each candidate digit of a canonical partition body in turn.

        The body holds multi-digit integers led by ``1`` (``10``,
        ``100``, ``-10``, ``"starts":10``), whose leading digit XOR
        ``0x01`` would turn into a leading zero.  Every flip must parse
        and differ in exactly one byte, and a digit is spared exactly
        when flipping it would not parse.
        """
        body = canonical_bytes({
            "op": "partition", "engine": "fm", "digest": "d0", "fingerprint": "f0",
            "settings": {"seed": 0, "starts": 10, "balance_tolerance": 0.1},
            "cutsize": 12, "weighted_cutsize": 12.5, "imbalance_fraction": 1.5e-10,
            "left": [1, 10, 11, 100, 101], "right": [-10, 0, 2, 19, 110],
            "degraded": False, "degrade_reason": None,
        })
        assert b'"left":[1,10,' in body and b'"starts":10' in body

        class FixedPick:
            """An rng whose ``randrange`` draws ``index`` and records its bound."""

            def __init__(self, index: int) -> None:
                self.index = index
                self.bound = None

            def randrange(self, bound: int) -> int:
                self.bound = bound
                return self.index

        faults.configure("server.verify=error:1", seed=5)
        flipped = set()
        index = 0
        while True:
            pick = FixedPick(index)
            monkeypatch.setattr(faults, "_decision_rng", lambda plan: pick)
            corrupted = faults.corrupt_bytes(body, "server.verify")
            assert len(corrupted) == len(body)
            diffs = [i for i, (a, b) in enumerate(zip(body, corrupted)) if a != b]
            assert len(diffs) == 1
            json.loads(corrupted)
            flipped.add(diffs[0])
            index += 1
            if index == pick.bound:
                break
        assert len(flipped) == index
        for i, byte in enumerate(body):
            if 0x30 <= byte <= 0x39:
                try:
                    json.loads(body[:i] + bytes([byte ^ 0x01]) + body[i + 1:])
                    parses = True
                except ValueError:
                    parses = False
                assert parses == (i in flipped), (i, body[i - 3:i + 3])

    def test_digitless_data_passes_through(self):
        faults.configure("server.verify=error:1", seed=5)
        data = b'{"name":"abc"}'
        assert faults.corrupt_bytes(data, "server.verify") == data

    def test_other_sites_untouched(self):
        faults.configure("server.verify=error:1", seed=5)
        data = b'{"cutsize":42}'
        assert faults.corrupt_bytes(data, "server.request") == data

    def test_suppressed_context_disarms(self):
        faults.configure("server.verify=error:1", seed=5)
        data = b'{"cutsize":42}'
        with faults.suppressed():
            assert faults.corrupt_bytes(data, "server.verify") == data


# ----------------------------------------------------------------------
# ResultCache under a concurrent hammer
# ----------------------------------------------------------------------


class TestResultCacheHammer:
    def _hammer(self, cache: ResultCache, threads: int = 8, ops: int = 400):
        errors: list[BaseException] = []

        def loop(worker: int) -> None:
            rng = random.Random(worker)
            try:
                for i in range(ops):
                    key = f"k{rng.randrange(32)}"
                    action = rng.random()
                    if action < 0.6:
                        value = (b"%d:" % worker) + b"x" * rng.randrange(1, 64)
                        cache.put(key, value)
                    elif action < 0.95:
                        cache.get(key)
                    else:
                        len(cache)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=loop, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        assert not errors

    def _assert_accounting(self, cache: ResultCache) -> None:
        stats = cache.stats()
        with cache._lock:
            actual_bytes = sum(len(v) for v in cache._entries.values())
            actual_entries = len(cache._entries)
        assert stats["bytes"] == actual_bytes
        assert stats["entries"] == actual_entries
        assert stats["bytes"] <= cache.max_bytes
        assert stats["entries"] <= cache.max_entries

    def test_byte_budget_invariants_under_contention(self):
        cache = ResultCache(max_bytes=2048, max_entries=4096)
        self._hammer(cache)
        self._assert_accounting(cache)

    def test_entry_cap_invariants_under_contention(self):
        cache = ResultCache(max_bytes=1 << 20, max_entries=16)
        self._hammer(cache)
        self._assert_accounting(cache)

    def test_both_caps_tight(self):
        cache = ResultCache(max_bytes=512, max_entries=8)
        self._hammer(cache, threads=12, ops=300)
        self._assert_accounting(cache)
        # The survivors must be readable and intact.
        with cache._lock:
            snapshot = dict(cache._entries)
        for key, value in snapshot.items():
            assert cache.get(key) == value

    def test_hammered_stats_still_consistent_counts(self):
        cache = ResultCache(max_bytes=4096, max_entries=64)
        self._hammer(cache)
        stats = cache.stats()
        assert stats["insertions"] >= stats["evictions"]
        assert stats["hits"] + stats["misses"] > 0


# ----------------------------------------------------------------------
# read_log: the record log's read, under both corruption policies
# ----------------------------------------------------------------------


class TestReadLogSkipMode:
    def test_skip_collects_corrupt_line_numbers(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            encode_line({"header": 1})
            + encode_line({"kind": "a"})
            + b"garbage\n"
            + encode_line({"kind": "b"})
        )
        contents = read_log(path)
        assert contents.header == {"header": 1}
        assert [obj["kind"] for _ln, obj in contents.records] == ["a", "b"]
        assert [lineno for lineno, _reason in contents.corrupt] == [3]
        assert contents.durable == path.stat().st_size

    def test_raise_mode_still_raises(self, tmp_path):
        # The journal is the schema whose policy is fatal.
        from repro.runtime import JournalFormatError, RunJournal

        path = tmp_path / "log.jsonl"
        RunJournal.create(path, "bench", {}).close()
        path.write_bytes(
            path.read_bytes() + b"garbage\n" + encode_line({"key": 1})
        )
        with pytest.raises(JournalFormatError, match="line 2"):
            RunJournal.resume(path, "bench", {})
