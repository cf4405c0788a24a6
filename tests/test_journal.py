"""Run-journal tests: format, durability, and crash/resume invariance.

The core contract under test: a resumed fault-free run produces a
payload identical (modulo timing fields and the ``supervision`` block)
to an uninterrupted one, **for any interrupt point** — including a kill
mid-append that leaves a partial JSON line — and for any worker count.
The interrupt-point half is a hypothesis property (truncate the journal
at an arbitrary byte past the header); the real-SIGKILL half lives in
the chaos-marked test at the bottom.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import QUICK_SUITE, run_bench
from repro.core.algorithm1 import Algorithm1Error, algorithm1
from repro.core.hypergraph import Hypergraph
from repro.generators import random_hypergraph
from repro.generators.netlists import clustered_netlist
from repro.runtime import (
    JournalError,
    JournalFingerprintError,
    JournalFormatError,
    RunJournal,
    settings_fingerprint,
)

pytestmark = pytest.mark.usefixtures("no_leaked_handles")

REPO_ROOT = Path(__file__).resolve().parent.parent

SETTINGS = {"seed": 7, "starts": 3, "cases": ["a", "b"]}

#: Payload fields that legitimately differ between an uninterrupted run
#: and a resumed one: wall-clock noise and what the supervisor had to do.
TIMING_FIELDS = ("seconds", "spans", "phases")


def stripped(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    out.pop("supervision", None)
    for entry in out["results"]:
        for field in TIMING_FIELDS:
            entry.pop(field, None)
    out.get("obs", {}).pop("spans", None)
    return out


# ----------------------------------------------------------------------
# RunJournal unit behaviour


class TestRunJournal:
    def test_create_record_resume_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            journal.record(["a", "fm"], {"ok": True, "n": 1})
            journal.record(["a", "kl"], {"ok": False})
        resumed, records = RunJournal.resume(path, "bench", SETTINGS)
        resumed.close()
        assert records == [
            (["a", "fm"], {"ok": True, "n": 1}),
            (["a", "kl"], {"ok": False}),
        ]

    def test_records_are_durable_on_disk_before_close(self, tmp_path):
        # fsync-per-record: the bytes must be in the file even while the
        # journal is still open (a SIGKILL never reaches close()).
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, "bench", SETTINGS)
        journal.record("k", 1)
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"key": "k", "value": 1}
        journal.close()

    def test_resume_keeps_appending_to_the_same_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            journal.record("first", 1)
        with RunJournal.resume(path, "bench", SETTINGS)[0] as journal:
            journal.record("second", 2)
        resumed, records = RunJournal.resume(path, "bench", SETTINGS)
        resumed.close()
        assert [k for k, _ in records] == ["first", "second"]

    def test_truncated_final_line_is_dropped_and_truncated_away(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            journal.record("done", 1)
        durable = path.read_bytes()
        path.write_bytes(durable + b'{"key": "half')
        resumed, records = RunJournal.resume(path, "bench", SETTINGS)
        resumed.close()
        assert records == [("done", 1)]
        assert path.read_bytes() == durable  # partial tail physically removed

    def test_malformed_middle_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            journal.record("a", 1)
            journal.record("b", 2)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"not json\n" + lines[2])
        with pytest.raises(JournalFormatError, match="line 2"):
            RunJournal.resume(path, "bench", SETTINGS)

    def test_fingerprint_mismatch_names_the_changed_settings(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path, "bench", SETTINGS).close()
        changed = dict(SETTINGS, seed=8)
        with pytest.raises(JournalFingerprintError, match="seed: 7 -> 8"):
            RunJournal.resume(path, "bench", changed)

    def test_schema_1_journal_is_refused(self, tmp_path):
        # Same task and settings, written by schema 1: its cuts followed
        # the old neighbour order of the dual, so resume must not mix them in.
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            journal.record("k", {"cutsize": 3})
        header, record = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header.replace(b'"journal":2', b'"journal":1') + record)
        with pytest.raises(JournalFormatError, match="journal schema 1 is not 2"):
            RunJournal.resume(path, "bench", SETTINGS)

    def test_task_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path, "partition", SETTINGS).close()
        with pytest.raises(JournalFingerprintError, match="'partition' run"):
            RunJournal.resume(path, "bench", SETTINGS)

    def test_empty_and_headerless_files_are_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalFormatError, match="empty journal"):
            RunJournal.resume(path, "bench", SETTINGS)
        path.write_bytes(b'{"key": "no header"}\n{"key": "x"}\n')
        with pytest.raises(JournalFormatError, match="not a journal header"):
            RunJournal.resume(path, "bench", SETTINGS)

    def test_unserializable_record_raises_journal_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            with pytest.raises(JournalError, match="not JSON-serializable"):
                journal.record("k", object())

    def test_fingerprint_is_order_independent(self):
        assert settings_fingerprint({"a": 1, "b": 2}) == settings_fingerprint(
            {"b": 2, "a": 1}
        )
        assert settings_fingerprint({"a": 1}) != settings_fingerprint({"a": 2})

    def test_on_disk_format_is_pinned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_settings = {"seed": 7, "cases": ["a", "b"]}
        with RunJournal.create(path, "bench", run_settings) as journal:
            journal.record(["a", "fm"], {"ok": True, "cutsize": 3})
            journal.record(["b", "fm"], {"ok": False, "error": "boom"})
        assert path.read_text().splitlines(keepends=True) == [
            '{"fingerprint":"c23642730a3533141b6d4fe388d794021ec69eac2fbb5174'
            '5222231aa91bf05a","journal":2,"settings":{"cases":["a","b"],'
            '"seed":7},"task":"bench"}\n',
            '{"key":["a","fm"],"value":{"cutsize":3,"ok":true}}\n',
            '{"key":["b","fm"],"value":{"error":"boom","ok":false}}\n',
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_append_after_any_cut_keeps_every_durable_record(
        self, tmp_path_factory, data
    ):
        # A record counts only once its newline is on disk: a cut just
        # before a newline leaves a whole JSON object that must still be
        # dropped, or the next append is glued onto its line.
        path = tmp_path_factory.mktemp("torn") / "run.jsonl"
        with RunJournal.create(path, "bench", SETTINGS) as journal:
            for key in ("x", "y", "z"):
                journal.record(key, {"v": key})
        raw = path.read_bytes()
        header_end = raw.index(b"\n") + 1
        newlines = [i for i in range(header_end, len(raw)) if raw[i] == ord("\n")]
        cut = data.draw(
            st.sampled_from(newlines) | st.integers(header_end, len(raw))
        )
        path.write_bytes(raw[:cut])
        journal, first = RunJournal.resume(path, "bench", SETTINGS)
        with journal:
            journal.record("new", {"v": "new"})
        journal, second = RunJournal.resume(path, "bench", SETTINGS)
        journal.close()
        assert second == first + [("new", {"v": "new"})]


# ----------------------------------------------------------------------
# Bench resume: interrupt-point invariance


BENCH_KWARGS = dict(
    cases=QUICK_SUITE[:1],
    engines=("algorithm1", "random"),
    seed=3,
    starts=2,
    repeats=1,
)


@pytest.fixture(scope="module")
def bench_reference(tmp_path_factory):
    """One uninterrupted journaled run: (stripped payload, journal bytes)."""
    path = tmp_path_factory.mktemp("journal") / "ref.jsonl"
    payload = run_bench("ref", journal_path=path, **BENCH_KWARGS)
    return stripped(payload), path.read_bytes()


class TestBenchResume:
    def test_resume_at_every_record_boundary_is_invariant(
        self, bench_reference, tmp_path
    ):
        reference, journal_bytes = bench_reference
        lines = journal_bytes.splitlines(keepends=True)
        for keep in range(1, len(lines) + 1):
            path = tmp_path / f"cut{keep}.jsonl"
            path.write_bytes(b"".join(lines[:keep]))
            seen = {}
            payload = run_bench(
                "ref",
                resume_path=path,
                on_resume=lambda r, p: seen.update(replayed=r, pending=p),
                **BENCH_KWARGS,
            )
            assert stripped(payload) == reference
            assert seen["replayed"] == keep - 1
            assert seen["pending"] == len(reference["results"]) - (keep - 1)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_resume_at_any_byte_past_the_header_is_invariant(
        self, bench_reference, tmp_path_factory, data
    ):
        reference, journal_bytes = bench_reference
        header_end = journal_bytes.index(b"\n") + 1
        cut = data.draw(
            st.integers(min_value=header_end, max_value=len(journal_bytes))
        )
        path = tmp_path_factory.mktemp("cut") / "cut.jsonl"
        path.write_bytes(journal_bytes[:cut])
        payload = run_bench("ref", resume_path=path, **BENCH_KWARGS)
        assert stripped(payload) == reference

    def test_resume_of_complete_journal_is_a_noop(self, bench_reference, tmp_path):
        reference, journal_bytes = bench_reference
        path = tmp_path / "full.jsonl"
        path.write_bytes(journal_bytes)
        seen = {}
        payload = run_bench(
            "ref",
            resume_path=path,
            on_resume=lambda r, p: seen.update(replayed=r, pending=p),
            **BENCH_KWARGS,
        )
        assert stripped(payload) == reference
        assert seen == {"replayed": len(reference["results"]), "pending": 0}

    def test_resume_is_worker_count_invariant(self, bench_reference, tmp_path):
        # The journal was written sequentially; resuming under a pool
        # must yield the same results (the settings block honestly
        # records the differing execution topology, which cannot affect
        # the numbers — normalize it before comparing).
        reference, journal_bytes = bench_reference
        lines = journal_bytes.splitlines(keepends=True)
        path = tmp_path / "cut.jsonl"
        path.write_bytes(b"".join(lines[:2]))
        payload = run_bench("ref", resume_path=path, parallel=2, **BENCH_KWARGS)
        current = stripped(payload)
        expected = json.loads(json.dumps(reference))
        for topology in ("parallel", "task_timeout", "max_retries"):
            current["settings"].pop(topology, None)
            expected["settings"].pop(topology, None)
        assert current == expected

    def test_resume_with_changed_settings_is_refused(self, bench_reference, tmp_path):
        _, journal_bytes = bench_reference
        path = tmp_path / "full.jsonl"
        path.write_bytes(journal_bytes)
        kwargs = dict(BENCH_KWARGS, seed=4)
        with pytest.raises(JournalFingerprintError, match="seed"):
            run_bench("ref", resume_path=path, **kwargs)

    def test_journal_and_resume_path_conflict_is_rejected(self, tmp_path):
        from repro.bench import BenchError

        with pytest.raises(BenchError, match="paths differ"):
            run_bench(
                "x",
                journal_path=tmp_path / "a.jsonl",
                resume_path=tmp_path / "b.jsonl",
                **BENCH_KWARGS,
            )


# ----------------------------------------------------------------------
# Algorithm I multi-start resume


@pytest.fixture(scope="module")
def instance():
    return clustered_netlist(70, 120, technology="std_cell", seed=3)


class TestAlgorithm1Resume:
    def run(self, h, **kwargs):
        return algorithm1(h, num_starts=6, seed=5, **kwargs)

    def test_pool_path_resume_matches_uninterrupted(self, instance, tmp_path):
        reference = self.run(instance, parallel=2)
        path = tmp_path / "p.jsonl"
        self.run(instance, parallel=2, journal_path=path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))  # header + 2 starts survive
        resumed = self.run(instance, parallel=2, resume_path=path)
        assert resumed.starts == reference.starts
        assert resumed.bipartition.left == reference.bipartition.left
        assert resumed.cutsize == reference.cutsize
        assert not resumed.degraded

    def test_incore_path_resume_matches_uninterrupted(self, instance, tmp_path):
        reference = self.run(instance, parallel=1)
        path = tmp_path / "p1.jsonl"
        self.run(instance, parallel=1, journal_path=path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:4]))
        resumed = self.run(instance, parallel=1, resume_path=path)
        assert resumed.starts == reference.starts
        assert resumed.bipartition.left == reference.bipartition.left

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_an_expired_deadline_keeps_every_recorded_start(self, parallel, tmp_path):
        # Starts 1-5 are missing: the in-process loop must fold 6 and 7
        # before its deadline check stops it at start 1.
        h = random_hypergraph(60, 100, seed=5, connect=True)
        path = tmp_path / "full.jsonl"
        algorithm1(h, num_starts=8, seed=4, parallel=2, journal_path=path)
        header, *entries = path.read_bytes().splitlines(keepends=True)
        kept = [line for line in entries if json.loads(line)["key"] in (0, 6, 7)]
        gaps = tmp_path / "gaps.jsonl"
        gaps.write_bytes(header + b"".join(kept))
        resumed = algorithm1(
            h, num_starts=8, seed=4, parallel=parallel, resume_path=gaps, deadline=1e-9
        )
        assert [record.cutsize for record in resumed.starts][-1] == 26
        assert (resumed.cutsize, len(resumed.starts), resumed.counters["num_starts"]) == (26, 3, 3)
        assert resumed.degraded and "3/8 starts" in resumed.degrade_reason

    def test_fully_recorded_journal_replays_without_running(self, instance, tmp_path):
        path = tmp_path / "p.jsonl"
        reference = self.run(instance, parallel=2, journal_path=path)
        resumed = self.run(instance, parallel=2, resume_path=path)
        assert resumed.starts == reference.starts
        assert resumed.cutsize == reference.cutsize
        assert resumed.counters["parallel_workers"] == 0  # nothing re-ran

    def test_malformed_start_entry_raises_and_closes_the_journal(self, instance, tmp_path):
        # The module's leak fixture fails the test if the refused
        # journal is left open.
        path = tmp_path / "p.jsonl"
        self.run(instance, parallel=1, journal_path=path)
        header, first, *rest = path.read_bytes().splitlines(keepends=True)
        entry = json.loads(first)
        del entry["value"]["left"]
        path.write_bytes(header + json.dumps(entry).encode() + b"\n" + b"".join(rest))
        with pytest.raises(Algorithm1Error, match="journal start entry is malformed"):
            self.run(instance, parallel=1, resume_path=path)

    def test_resume_binds_to_the_hypergraph(self, instance, tmp_path):
        path = tmp_path / "p.jsonl"
        self.run(instance, parallel=2, journal_path=path)
        other = clustered_netlist(70, 120, technology="std_cell", seed=4)
        with pytest.raises(JournalFingerprintError, match="hypergraph"):
            self.run(other, parallel=2, resume_path=path)

    def test_journal_requires_parallel_seed_contract(self, instance, tmp_path):
        with pytest.raises(Algorithm1Error, match="requires parallel"):
            self.run(instance, journal_path=tmp_path / "p.jsonl")

    def test_journal_rejects_random_instance_seed(self, instance, tmp_path):
        import random

        with pytest.raises(Algorithm1Error, match="integer"):
            algorithm1(
                instance,
                num_starts=4,
                seed=random.Random(1),
                parallel=1,
                journal_path=tmp_path / "p.jsonl",
            )

    def test_early_return_paths_still_write_a_resumable_journal(self, tmp_path):
        # A disconnected dual takes the component-packing early return
        # before any start runs.  --journal must still leave a (header
        # only) journal behind, and resuming it must recompute the same
        # deterministic answer — not FileNotFoundError.
        h = Hypergraph(edges={"a": ["m1", "m2"], "b": ["m3", "m4"]})
        path = tmp_path / "packed.jsonl"
        first = algorithm1(h, num_starts=4, seed=5, parallel=1, journal_path=path)
        assert path.exists()
        assert len(path.read_bytes().splitlines()) == 1  # header, no starts
        resumed = algorithm1(h, num_starts=4, seed=5, parallel=1, resume_path=path)
        assert resumed.cutsize == first.cutsize == 0
        assert resumed.bipartition.left == first.bipartition.left
        other = Hypergraph(edges={"a": ["m1", "m2"], "c": ["m5", "m6"]})
        with pytest.raises(JournalFingerprintError, match="hypergraph"):
            algorithm1(other, num_starts=4, seed=5, parallel=1, resume_path=path)


# ----------------------------------------------------------------------
# The acceptance differential: a real SIGKILL at an arbitrary pair
# boundary, resumed through the CLI.


@pytest.mark.chaos
class TestSigkillResume:
    def test_sigkilled_bench_resumes_to_identical_payload(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        journal = tmp_path / "run.jsonl"
        args = [
            sys.executable,
            "-m",
            "repro.cli",
            "bench",
            "--quick",
            "--parallel",
            "2",
            "--starts",
            "2",
            "--repeats",
            "1",
            "--seed",
            "3",
            "--label",
            "kill",
        ]

        # Reference: the same run, uninterrupted.
        ref_out = tmp_path / "ref.json"
        proc = subprocess.run(
            args + ["--out", str(ref_out)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        reference = stripped(json.loads(ref_out.read_text()))

        # Victim: SIGKILL once the journal holds at least two completed
        # pairs (an arbitrary pair boundary — whatever the scheduler
        # reached first).
        victim = subprocess.Popen(
            args + ["--journal", str(journal), "--out", str(tmp_path / "v.json")],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=tmp_path,
        )
        try:
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if journal.exists() and len(journal.read_bytes().splitlines()) >= 3:
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("journal never accumulated records")
        finally:
            victim.kill()
            victim.wait(timeout=60)

        recorded = len(journal.read_bytes().splitlines()) - 1
        assert recorded >= 1

        resumed_out = tmp_path / "resumed.json"
        proc = subprocess.run(
            args + ["--resume", str(journal), "--out", str(resumed_out)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resume:" in proc.stderr and "replayed" in proc.stderr
        assert stripped(json.loads(resumed_out.read_text())) == reference
