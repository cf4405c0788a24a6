"""Per-worker memory governance: rlimit, RSS polling, and bench wiring.

The contract under test (ISSUE 5): a worker that exceeds its memory
budget becomes a *typed* failed task — never a dead parent, never a
retry loop (re-running an allocation bomb in-process would OOM the very
process the budget protects).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import SupervisedPool, memory
from repro.runtime.memory import (
    MemoryBudgetExceeded,
    apply_address_space_limit,
    format_bytes,
    rlimit_supported,
    rss_bytes,
    rss_supported,
)

needs_rlimit = pytest.mark.skipif(
    not rlimit_supported(), reason="RLIMIT_AS unsupported on this platform"
)
needs_proc = pytest.mark.skipif(
    not rss_supported(), reason="/proc not available on this platform"
)


def _vm_size_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found")


# ----------------------------------------------------------------------
# Primitives


class TestPrimitives:
    def test_format_bytes_renders_mib(self):
        assert format_bytes(64 << 20) == "64 MiB"

    def test_budget_exceeded_is_a_memory_error(self):
        exc = MemoryBudgetExceeded("over", limit_bytes=123)
        assert isinstance(exc, MemoryError)
        assert exc.limit_bytes == 123

    @needs_proc
    def test_rss_bytes_reads_own_process(self):
        rss = rss_bytes(os.getpid())
        assert rss is not None and rss > 0

    @needs_proc
    def test_rss_bytes_returns_none_for_dead_pid(self):
        # PID max on Linux is bounded; 2**22+1 exceeds the default limit.
        assert rss_bytes(2**22 + 1) is None


# ----------------------------------------------------------------------
# Child-side rlimit: an allocation bomb dies alone, typed


def _allocate(payload):
    if payload.get("bomb"):
        size = len(bytearray(payload["bytes"]))
        return os.getpid() if payload.get("pid") else size
    time.sleep(payload.get("sleep", 0))
    return 0


@needs_rlimit
class TestAddressSpaceLimit:
    def test_apply_limit_reports_success(self):
        # Applied in a forked child so the test process stays unlimited.
        pid = os.fork()
        if pid == 0:
            os._exit(0 if apply_address_space_limit(_vm_size_bytes() + (64 << 20)) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_over_budget_worker_fails_typed_without_retry(self):
        # Budget = current footprint + modest headroom: the forked child
        # survives, but a 512 MiB allocation cannot fit.
        limit = _vm_size_bytes() + (64 << 20)
        tasks = [
            ("bomb", {"bomb": True, "bytes": 512 << 20}),
            ("ok", {"bomb": False}),
        ]
        pool = SupervisedPool(
            _allocate, max_workers=2, max_retries=2, memory_limit_bytes=limit
        )
        results, report = pool.map(tasks)
        by_key = {r.key: r for r in results}
        assert by_key["ok"].ok and by_key["ok"].value == 0
        assert not by_key["bomb"].ok
        assert "memory budget" in by_key["bomb"].error
        assert "MemoryError" in by_key["bomb"].error
        assert report.memory_kills == 1
        assert report.retries == 0  # terminal: never retried
        assert report.sequential_fallbacks == 0  # never rerun in-process
        assert report.degraded


    def test_a_reused_worker_runs_tasks_that_fit_the_budget_one_at_a_time(self):
        # Each task takes ~60% of the headroom: two at once would not
        # fit, but a reused worker hands the first one's memory back.
        headroom = 128 << 20
        limit = _vm_size_bytes() + headroom
        chunk = int(0.6 * headroom)
        tasks = [(i, {"bomb": True, "bytes": chunk, "pid": True}) for i in range(2)]
        with SupervisedPool(
            _allocate, max_workers=1, max_retries=0, memory_limit_bytes=limit
        ) as pool:
            results, report = pool.map(tasks)
        assert all(r.ok for r in results)
        assert len({r.value for r in results}) == 1  # one worker ran both
        assert report.memory_kills == 0 and not report.degraded

    def test_over_budget_in_a_reused_worker_reruns_fresh_then_fails_terminally(self):
        from repro import obs

        limit = _vm_size_bytes() + (64 << 20)
        tasks = [
            ("ok", {"bomb": False}),
            ("bomb", {"bomb": True, "bytes": 512 << 20}),
        ]
        with obs.enabled(clear=True) as reg, SupervisedPool(
            _allocate, max_workers=1, max_retries=2, memory_limit_bytes=limit
        ) as pool:
            results, report = pool.map(tasks)
        by_key = {r.key: r for r in results}
        assert by_key["ok"].ok
        bomb = by_key["bomb"]
        assert bomb.failure == "memory" and bomb.attempts == 1
        # The reused worker's failure bought one fresh worker, no retry.
        assert reg.counter("runtime.supervisor.memory_reruns") == 1
        assert reg.counter("runtime.supervisor.spawns") == 2
        assert report.memory_kills == 1
        assert report.retries == 0
        assert report.sequential_fallbacks == 0


# ----------------------------------------------------------------------
# Parent-side RSS polling: the backstop for memory rlimit cannot see


@needs_proc
class TestRssPolling:
    def test_rss_poller_terminates_over_budget_worker(self, monkeypatch):
        # Make the poller *believe* the sleeping worker is enormous, with
        # an rlimit far too high to fire first — isolates the RSS path.
        from repro.runtime import supervisor as sup_mod

        monkeypatch.setattr(
            sup_mod.memory, "rss_bytes", lambda pid: 10**12, raising=True
        )
        pool = SupervisedPool(
            _allocate, max_workers=1, memory_limit_bytes=10**11
        )
        results, report = pool.map([("sleeper", {"sleep": 30})])
        (task,) = results
        assert not task.ok
        assert "RSS" in task.error and "memory budget" in task.error
        assert report.memory_kills == 1
        assert report.retries == 0

    def test_peak_rss_is_tracked_for_healthy_workers(self):
        pool = SupervisedPool(_allocate, max_workers=1)
        results, report = pool.map([("sleeper", {"sleep": 0.2})])
        assert results[0].ok
        assert report.peak_rss_bytes > 0
        assert report.memory_kills == 0
        assert not report.degraded  # peak RSS alone never degrades a run


# ----------------------------------------------------------------------
# Bench wiring


class TestBenchMemoryLimit:
    def test_memory_limit_requires_parallel(self):
        from repro.bench import BenchError, QUICK_SUITE, run_bench

        with pytest.raises(BenchError, match="require parallel"):
            run_bench("x", cases=QUICK_SUITE[:1], memory_limit_mb=64)

    def test_memory_limit_must_be_positive(self):
        from repro.bench import BenchError, QUICK_SUITE, run_bench

        with pytest.raises(BenchError, match="positive"):
            run_bench("x", cases=QUICK_SUITE[:1], parallel=2, memory_limit_mb=0)

    @needs_rlimit
    def test_over_budget_pair_is_an_explicit_failed_entry(self):
        from repro.bench import QUICK_SUITE, run_bench
        from repro.runtime import faults

        # The injected oom raises MemoryError at the bench.pair site —
        # same handler as a real over-budget allocation, no host impact.
        faults.configure("bench.pair=oom:1", seed=0)
        try:
            payload = run_bench(
                "oom",
                cases=QUICK_SUITE[:1],
                engines=("random",),
                seed=1,
                starts=1,
                repeats=1,
                parallel=2,
                memory_limit_mb=4096,
            )
        finally:
            faults.configure(None)
        (entry,) = payload["results"]
        assert entry["failed"] is True
        assert "memory budget" in entry["error"]
        sup = payload["supervision"]
        assert sup["memory_kills"] == 1
        assert sup["degraded"] is True
        assert "over-memory-budget" in sup["summary"]
