"""Tests for the supervised worker pool and its Algorithm I integration.

Covers the supervisor contract directly (crash recovery, hang detection,
retry-with-seed-advance, deadline expiry, sequential fallback, input-order
results) and through ``algorithm1(parallel=k)``: injected worker crashes
and hangs must still produce a valid bipartition and a *truthful*
``Algorithm1Result`` start count.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.algorithm1 import algorithm1
from repro.generators import random_hypergraph
from repro.runtime import (
    Deadline,
    SupervisedPool,
    advance_seed,
    faults,
)

pytestmark = pytest.mark.usefixtures("no_leaked_handles")


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    yield
    faults.configure(None)


@pytest.fixture(scope="module")
def instance():
    return random_hypergraph(50, 85, seed=21, connect=True)


def assert_valid_bipartition(h, bp):
    left, right = set(bp.left), set(bp.right)
    assert left and right
    assert not (left & right)
    assert left | right == set(h.vertices)


# ----------------------------------------------------------------------
# advance_seed


class TestAdvanceSeed:
    def test_attempt_zero_is_identity(self):
        assert advance_seed(12345, 0) == 12345

    def test_deterministic(self):
        assert advance_seed(7, 3) == advance_seed(7, 3)

    def test_attempts_map_to_distinct_seeds(self):
        seeds = {advance_seed(99, a) for a in range(8)}
        assert len(seeds) == 8

    def test_stays_in_63_bits(self):
        for attempt in range(5):
            assert 0 <= advance_seed((1 << 63) - 1, attempt) < (1 << 63)


# ----------------------------------------------------------------------
# SupervisedPool direct


def _double(payload):
    return payload * 2


def _crash_if_flagged(payload):
    flag, x = payload
    if flag == "crash":
        os._exit(70)
    if flag == "raise":
        raise ValueError(f"injected failure for {x}")
    if flag == "hang":
        time.sleep(30)
    return x * 10


def _fail_as(flag):
    if flag == "oom":
        raise MemoryError("over budget")
    return _crash_if_flagged((flag, 0))


def _retry_payload(payload, attempt):
    _flag, x = payload
    return ("ok", x)


SLEEPER_S = 1.0


def _crash_or_sleep(flag):
    if flag == "crash":
        os._exit(70)
    time.sleep(SLEEPER_S)
    return flag


class TestSupervisedPool:
    def test_plain_map_is_clean_and_ordered(self):
        pool = SupervisedPool(_double, max_workers=3)
        results, report = pool.map([(i, i) for i in range(7)])
        assert [r.value for r in results] == [0, 2, 4, 6, 8, 10, 12]
        assert all(r.ok and r.attempts == 1 and not r.sequential for r in results)
        assert not report.degraded
        assert report.summary() == "clean"
        assert report.completed == 7 and report.failed == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SupervisedPool(_double, max_workers=0)
        with pytest.raises(ValueError):
            SupervisedPool(_double, max_workers=1, max_retries=-1)
        with pytest.raises(ValueError):
            SupervisedPool(_double, max_workers=1, task_timeout=0)

    def test_crash_recovered_by_retry(self):
        pool = SupervisedPool(
            _crash_if_flagged, max_workers=2, max_retries=2, reseed=_retry_payload
        )
        results, report = pool.map([(0, ("crash", 4)), (1, ("ok", 5))])
        assert results[0].ok and results[0].value == 40
        assert results[0].attempts == 2  # one crash + one clean retry
        assert results[1].ok and results[1].attempts == 1
        assert report.crashes == 1 and report.retries == 1
        assert report.degraded

    def test_worker_exception_recovered_by_retry(self):
        pool = SupervisedPool(
            _crash_if_flagged, max_workers=2, max_retries=2, reseed=_retry_payload
        )
        results, report = pool.map([(0, ("raise", 3))])
        assert results[0].ok and results[0].value == 30
        assert report.retries == 1
        assert any("ValueError" in err for err in report.errors)

    def test_exhausted_retries_fall_back_to_sequential(self):
        # The reseed keeps the crash flag, so every forked attempt dies;
        # the sequential fallback (in-process, no os._exit reachable for
        # "raise" mode here) must still record a truthful error.
        pool = SupervisedPool(
            lambda payload: (_ for _ in ()).throw(RuntimeError("always fails")),
            max_workers=1,
            max_retries=1,
        )
        results, report = pool.map([(0, None)])
        assert not results[0].ok
        assert results[0].sequential
        assert "sequential fallback also failed" in results[0].error
        assert report.failed == 1
        assert report.sequential_fallbacks == 1

    def test_hang_detected_and_marked_failed_without_inprocess_rerun(self):
        pool = SupervisedPool(
            _crash_if_flagged, max_workers=2, task_timeout=0.25, max_retries=0
        )
        started = time.monotonic()
        results, report = pool.map([(0, ("hang", 1)), (1, ("ok", 2))])
        elapsed = time.monotonic() - started
        # A hung task with no retry budget is failed, never rerun
        # in-process (which would block for the full 30s sleep).
        assert elapsed < 10.0
        assert not results[0].ok
        assert "hung" in results[0].error
        assert results[1].ok and results[1].value == 20
        assert report.hangs == 1
        assert report.degraded

    def test_hang_recovered_by_retry(self):
        pool = SupervisedPool(
            _crash_if_flagged,
            max_workers=1,
            task_timeout=0.25,
            max_retries=1,
            reseed=_retry_payload,
        )
        results, report = pool.map([(0, ("hang", 6))])
        assert results[0].ok and results[0].value == 60
        assert results[0].attempts == 2
        assert report.hangs == 1 and report.retries == 1

    def test_reseed_receives_advancing_attempts(self):
        observed = []

        def reseed(payload, attempt):
            observed.append(attempt)
            return ("ok", payload[1])

        pool = SupervisedPool(
            _crash_if_flagged, max_workers=1, max_retries=3, reseed=reseed
        )
        results, _report = pool.map([(0, ("raise", 2))])
        assert results[0].ok
        assert observed == [1]

    def test_deadline_expiry_reports_every_task(self):
        pool = SupervisedPool(
            lambda payload: time.sleep(5.0),
            max_workers=1,
            deadline=Deadline.after(0.2),
        )
        started = time.monotonic()
        results, report = pool.map([(i, i) for i in range(4)])
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # in-flight worker was terminated, not joined
        assert report.deadline_expired
        assert report.degraded
        assert len(results) == 4
        assert all(not r.ok for r in results)
        assert any("mid-execution" in r.error for r in results)
        assert any("before execution" in r.error for r in results)
        assert {r.failure for r in results} == {"deadline"}

    def test_failures_are_typed_where_they_happen(self):
        pool = SupervisedPool(
            _fail_as,
            max_workers=2,
            max_retries=0,
            task_timeout=1.0,
            sequential_fallback=False,
        )
        flags = ("crash", "raise", "hang", "oom", "ok")
        results, _report = pool.map([(flag, flag) for flag in flags])
        assert {r.key: r.failure for r in results} == {
            "crash": "crash",
            "raise": "error",
            "hang": "hang",
            "oom": "memory",
            "ok": None,
        }

    def test_seed_advance_used_end_to_end(self):
        # Worker crashes only on the original seed; the retried payload
        # must be exactly advance_seed(seed, 1).
        original = 424242

        def worker(seed):
            if seed == original:
                os._exit(70)
            return seed

        pool = SupervisedPool(
            worker,
            max_workers=1,
            max_retries=2,
            reseed=lambda seed, attempt: advance_seed(original, attempt),
        )
        results, report = pool.map([(0, original)])
        assert results[0].ok
        assert results[0].value == advance_seed(original, 1)
        assert report.crashes == 1

    def test_abort_sets_the_structured_aborted_flag(self):
        """abort() marks cut tasks via TaskResult.aborted — callers (the
        daemon's drain path above all) branch on the flag, never on the
        abort message text."""
        pool = SupervisedPool(_crash_if_flagged, max_workers=1, max_retries=3)
        aborter = threading.Timer(0.3, pool.abort, args=("drain cutoff",))
        aborter.start()
        try:
            results, report = pool.map(
                [("running", ("hang", 1)), ("queued", ("ok", 2))]
            )
        finally:
            aborter.cancel()
        by_key = {r.key: r for r in results}
        assert not by_key["running"].ok
        assert by_key["running"].aborted is True
        assert by_key["running"].error == "drain cutoff mid-execution"
        assert not by_key["queued"].ok
        assert by_key["queued"].aborted is True
        assert by_key["queued"].error == "drain cutoff before execution"

    def test_ordinary_failures_are_not_flagged_aborted(self):
        pool = SupervisedPool(
            _crash_if_flagged,
            max_workers=1,
            max_retries=0,
            sequential_fallback=False,
        )
        results, _report = pool.map([("x", ("crash", 1))])
        assert not results[0].ok
        assert results[0].aborted is False


class TestConcurrentMaps:
    def test_crashes_report_at_once_beside_sleeping_siblings(self):
        """More threads than cores share one pool, as the daemon's broker
        dispatchers do: half map tasks that die at once, half map ~1 s
        sleepers.  A sleeper forked while a crashing task's pipe is still
        open in the parent would inherit its write end and hold back the
        crash report until the sleeper exits; no report may wait that
        long, and every task ends in exactly one final result."""
        lock = threading.Lock()
        finals = []
        returned = []
        crash_seconds = []

        def on_result(result):
            with lock:
                finals.append(result)

        pool = SupervisedPool(
            _crash_or_sleep,
            max_workers=2,
            max_retries=0,
            sequential_fallback=False,
            on_result=on_result,
        )
        stop_at = time.monotonic() + 3.0

        def crasher(i):
            n = 0
            while time.monotonic() < stop_at:
                t0 = time.monotonic()
                results, _report = pool.map([(f"crash-{i}-{n}", "crash")])
                with lock:
                    crash_seconds.append(time.monotonic() - t0)
                    returned.extend(results)
                n += 1

        def sleeper(i):
            n = 0
            while time.monotonic() < stop_at:
                tasks = [(f"sleep-{i}-{n}-{j}", "sleep") for j in range(2)]
                results, _report = pool.map(tasks)
                with lock:
                    returned.extend(results)
                n += 1

        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2
        threads = [
            threading.Thread(target=crasher if i % 2 == 0 else sleeper, args=(i,))
            for i in range(min(cores + 2, 8))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        assert crash_seconds
        assert max(crash_seconds) < SLEEPER_S / 2, sorted(crash_seconds)[-5:]
        keys = [result.key for result in finals]
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted(result.key for result in returned)
        for result in finals:
            if result.key.startswith("crash"):
                assert not result.ok and result.failure == "crash"
            else:
                assert result.ok and result.value == "sleep"


# ----------------------------------------------------------------------
# Reused workers


def _pid(payload):
    return os.getpid()


def _pid_or_fail(flag):
    if flag == "ok":
        return os.getpid()
    if flag == "oom":
        raise MemoryError("over budget")
    return _crash_if_flagged((flag, 0))


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _mark_sleep_then_pid(path):
    open(path, "w").close()
    time.sleep(0.5)
    return os.getpid()


def _inject_then_pid(payload):
    faults.inject("test.reuse")
    return os.getpid()


class TestWorkerReuse:
    def test_consecutive_tasks_and_maps_share_one_worker(self):
        with obs.enabled(clear=True) as reg, SupervisedPool(_pid, max_workers=1) as pool:
            first, report = pool.map([(i, i) for i in range(4)])
            second, _report = pool.map([("again", 0)])
        pids = {r.value for r in first} | {r.value for r in second}
        assert len(pids) == 1 and os.getpid() not in pids
        assert not report.degraded
        assert reg.counter("runtime.supervisor.spawns") == 1
        assert reg.counter("runtime.supervisor.tasks") == 5

    @pytest.mark.parametrize("flag", ["crash", "raise", "hang", "oom"])
    def test_a_failed_worker_is_replaced(self, flag):
        with SupervisedPool(
            _pid_or_fail,
            max_workers=1,
            max_retries=0,
            task_timeout=0.5,
            sequential_fallback=False,
        ) as pool:
            [before], _report = pool.map([("first", "ok")])
            [failed], _report = pool.map([("bad", flag)])
            [after], _report = pool.map([("next", "ok")])
        assert not failed.ok
        assert after.ok and after.value != before.value
        assert not _alive(before.value)

    @pytest.mark.parametrize("cut", ["deadline", "aborted"])
    def test_a_worker_cut_mid_task_is_ended(self, cut):
        with SupervisedPool(_pid_or_fail, max_workers=1, max_retries=0) as pool:
            [before], _report = pool.map([("first", "ok")])
            aborter = threading.Timer(0.5, pool.abort)
            if cut == "deadline":
                pool.deadline = Deadline.after(0.5)
            else:
                aborter.start()
            [hung], _report = pool.map([("hung", "hang")])
            aborter.cancel()
            assert hung.failure == cut
            assert not _alive(before.value)
            if cut == "deadline":
                # An aborted pool stays aborted; past its deadline, one
                # given a new budget forks a fresh worker.
                pool.deadline = None
                [after], _report = pool.map([("next", "ok")])
                assert after.ok and after.value != before.value

    def test_a_parent_sigterm_handler_does_not_shield_a_hung_worker(self):
        """A daemon's own SIGTERM handler (drain on SIGTERM) must not be
        what a hung worker runs when the supervisor SIGTERMs it."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with SupervisedPool(
                _pid_or_fail,
                max_workers=1,
                max_retries=0,
                task_timeout=0.3,
                sequential_fallback=False,
            ) as pool:
                [before], _report = pool.map([("first", "ok")])
                started = time.monotonic()
                [hung], _report = pool.map([("hung", "hang")])
                elapsed = time.monotonic() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert hung.failure == "hang"
        assert elapsed < 3.0
        assert not _alive(before.value)

    def test_fault_plan_configured_later_reaches_a_running_worker(self):
        with SupervisedPool(
            _inject_then_pid, max_workers=1, max_retries=0, sequential_fallback=False
        ) as pool:
            [clean], _report = pool.map([("clean", None)])
            faults.configure("test.reuse=error:1", seed=1)
            [armed], _report = pool.map([("armed", None)])
            faults.configure(None)
            [disarmed], _report = pool.map([("disarmed", None)])
        assert clean.ok
        assert armed.failure == "error" and "injected fault" in armed.error
        assert disarmed.ok

    def test_no_worker_outlives_close(self):
        with SupervisedPool(_pid, max_workers=3) as pool:
            idle = {r.value for r in pool.map([(i, i) for i in range(6)])[0]}
        assert 1 <= len(idle) <= 3
        assert not any(_alive(pid) for pid in idle)

    def test_a_worker_busy_at_close_ends_with_its_task(self, tmp_path):
        started = tmp_path / "started"
        slow = SupervisedPool(_mark_sleep_then_pid, max_workers=1)
        box = {}
        runner = threading.Thread(target=lambda: box.update(r=slow.map([("slow", str(started))])))
        runner.start()
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        slow.close()
        runner.join(timeout=30)
        assert not runner.is_alive()
        [result], _report = box["r"]
        assert result.ok and not _alive(result.value)

    def test_concurrent_maps_never_share_a_busy_worker(self):
        """More threads than cores, a short switch interval, crashes
        mixed in: every task gets exactly one final result, and each
        result is its own task's echo — a worker handed two tasks at
        once would answer one of them with the other's payload."""
        lock = threading.Lock()
        finals = []
        echoes = []

        def on_result(result):
            with lock:
                finals.append(result.key)

        pool = SupervisedPool(
            _echo_or_crash,
            max_workers=2,
            max_retries=0,
            sequential_fallback=False,
            on_result=on_result,
        )
        stop_at = time.monotonic() + 2.0

        def mapper(i):
            n = 0
            while time.monotonic() < stop_at:
                tasks = [
                    ((i, n, j), ("crash" if (i + n + j) % 7 == 0 else "ok", i, n, j))
                    for j in range(1 + n % 3)
                ]
                results, _report = pool.map(tasks)
                with lock:
                    echoes.extend((dict(tasks)[r.key], r) for r in results)
                n += 1

        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=mapper, args=(i,)) for i in range(cores + 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(finals) == len(set(finals)) == len(echoes)
        for payload, result in echoes:
            if payload[0] == "crash":
                assert not result.ok and result.failure == "crash"
            else:
                assert result.ok and result.value[0] == payload


def _echo_or_crash(payload):
    if payload[0] == "crash":
        os._exit(70)
    return payload, os.getpid()


# ----------------------------------------------------------------------
# Algorithm I through the supervisor (ISSUE satellite: supervisor coverage)


class TestAlgorithm1Supervised:
    def test_injected_crashes_still_produce_valid_result(self, instance):
        # Every forked attempt crashes (probability 1); each start is
        # recovered by the hardened sequential fallback, so all starts
        # complete and the counter stays truthful.
        faults.configure("parallel.start=crash:1", seed=0)
        result = algorithm1(
            instance, num_starts=6, seed=123, parallel=2, max_retries=1
        )
        assert_valid_bipartition(instance, result.bipartition)
        assert len(result.starts) == 6
        assert result.counters["num_starts"] == 6
        assert result.degraded
        assert "crash" in result.degrade_reason

    def test_injected_hangs_still_produce_valid_result(self, instance):
        # Hangs are probabilistic (0.5 per attempt): some starts may be
        # lost after retries, but whatever is reported must be valid and
        # the start count truthful.
        faults.configure("parallel.start=hang:0.5:30", seed=7)
        result = algorithm1(
            instance,
            num_starts=6,
            seed=123,
            parallel=3,
            task_timeout=0.3,
            max_retries=2,
        )
        assert_valid_bipartition(instance, result.bipartition)
        assert 1 <= len(result.starts) <= 6
        assert result.counters["num_starts"] == len(result.starts)
        if len(result.starts) < 6:
            assert result.degraded

    def test_retry_with_seed_advance_produces_valid_result(self, instance):
        # Kill mode with probability 0.5: retries re-fork with the
        # advanced seed; survivors plus sequential fallbacks must cover
        # every start.
        faults.configure("parallel.start=kill:0.5", seed=3)
        result = algorithm1(
            instance, num_starts=6, seed=123, parallel=2, max_retries=2
        )
        assert_valid_bipartition(instance, result.bipartition)
        assert len(result.starts) == 6
        assert result.counters["num_starts"] == 6

    def test_faultless_parallel_run_matches_sequential_predrawn(self, instance):
        # The supervisor must not perturb the worker-count-invariant
        # reproducibility contract on the fault-free path.
        a = algorithm1(instance, num_starts=4, seed=9, parallel=1)
        b = algorithm1(instance, num_starts=4, seed=9, parallel=3)
        assert a.cutsize == b.cutsize
        assert a.bipartition == b.bipartition
        assert not a.degraded and not b.degraded
