"""Overload, quarantine, and drain tests for the partition service.

Three layers:

* **Unit** (no daemon, no marks): the admission controller, the
  quarantine breaker state machine (injectable clock, no sleeping), the
  broker's bounded queue and prompt-fail-on-stop contract, and the
  client's shed-aware retry policy.
* **Integration** (live daemon + fault injection, ``-m chaos``): typed
  429/503 sheds under real load, breaker trip/probe/recovery over HTTP,
  graceful drain with in-flight work (including SIGTERM against a
  subprocess daemon on an AF_UNIX socket), and drain-timeout stragglers
  being cut with a typed error.
* **Soak** (``-m chaos``): the loadgen harness hammers a subprocess
  daemon well past its admission budget while faults slow the workers;
  the run must show typed sheds, a ``/healthz`` that answers inside its
  budget throughout, bounded RSS, a clean SIGTERM exit, no leftover
  socket file, and zero orphaned worker processes.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.hypergraph import Hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.runtime import faults
from repro.runtime.supervisor import SupervisedPool, SupervisionReport, TaskResult
from repro.server import (
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceResponseError,
)
from repro.server.admission import AdmissionController, QuarantineBreaker
from repro.server.batching import RequestBroker
from repro.server.client import ServiceClientError, ServiceConnectionError
from repro.server.loadgen import run_load
from repro.server.protocol import (
    Draining,
    Overloaded,
    Quarantined,
    canonical_bytes,
    parse_request,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.configure(None)
    obs.disable()
    obs.registry().clear()
    yield
    faults.configure(None)
    obs.disable()
    obs.registry().clear()


@pytest.fixture
def h() -> Hypergraph:
    graph = Hypergraph(vertices=range(10))
    for i in range(9):
        graph.add_edge([i, i + 1], name=f"c{i}")
    graph.add_edge([0, 5], name="x0")
    graph.add_edge([2, 7], name="x1")
    return graph


# ----------------------------------------------------------------------
# Unit: admission controller
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_sheds_past_the_budget_with_a_bounded_hint(self):
        ac = AdmissionController(max_inflight=2, workers=1)
        ac.admit()
        ac.admit()
        with pytest.raises(Overloaded) as excinfo:
            ac.admit()
        assert 0.1 <= excinfo.value.retry_after <= 30.0
        assert excinfo.value.http_status == 429
        # A release frees exactly one slot.
        ac.release(0.05)
        ac.admit()
        with pytest.raises(Overloaded):
            ac.admit()
        stats = ac.stats()
        assert stats["shed"] == 2
        assert stats["admitted"] == 3
        assert stats["peak_inflight"] == 2

    def test_retry_after_tracks_observed_service_time(self):
        ac = AdmissionController(max_inflight=1, workers=1)
        for _ in range(30):
            ac.admit()
            ac.release(2.0)  # EWMA converges toward 2 s per request
        ac.admit()
        with pytest.raises(Overloaded) as excinfo:
            ac.admit()
        assert excinfo.value.retry_after > 1.0

    def test_release_without_a_sample_keeps_the_ewma(self):
        """A shed returns its slot but must not feed ~0 s 'service time'
        into the EWMA — that would collapse the Retry-After hint toward
        its floor exactly when backpressure matters."""
        ac = AdmissionController(max_inflight=2, workers=1)
        ac.admit()
        ac.release(2.0)
        avg = ac.stats()["avg_service_seconds"]
        ac.admit()
        ac.release(None)
        assert ac.stats()["avg_service_seconds"] == avg
        assert ac.inflight == 0

    def test_drain_wait(self):
        ac = AdmissionController(max_inflight=4)
        assert ac.drain_wait(0.0) is True  # empty drains instantly
        ac.admit()
        assert ac.drain_wait(0.05) is False  # occupied: times out
        releaser = threading.Timer(0.05, ac.release, args=(0.01,))
        releaser.start()
        try:
            assert ac.drain_wait(5.0) is True
        finally:
            releaser.cancel()


# ----------------------------------------------------------------------
# Unit: quarantine breaker (injectable clock; no sleeping)
# ----------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestQuarantineBreakerUnit:
    def test_trips_at_threshold_and_sheds_with_cooldown(self):
        clock = _Clock()
        qb = QuarantineBreaker(threshold=3, cooldown=10.0, clock=clock)
        for _ in range(2):
            qb.record("k", "WorkerCrashed")
            qb.check("k")  # still closed
        qb.record("k", "WorkerCrashed")  # third poison: trip
        with pytest.raises(Quarantined) as excinfo:
            qb.check("k")
        assert 0 < excinfo.value.retry_after <= 10.0
        assert qb.open_keys() == 1
        assert qb.stats()["trips"] == 1
        # Other keys are unaffected.
        qb.check("other")

    def test_half_open_probe_admits_exactly_one(self):
        clock = _Clock()
        qb = QuarantineBreaker(threshold=1, cooldown=5.0, clock=clock)
        qb.record("k", "WorkerHung")
        with pytest.raises(Quarantined):
            qb.check("k")
        clock.now += 5.1  # cooldown over: one probe passes ...
        qb.check("k")
        with pytest.raises(Quarantined):  # ... concurrent duplicates do not
            qb.check("k")
        # Probe succeeds: the key is forgiven outright.
        qb.record("k", None)
        qb.check("k")
        stats = qb.stats()
        assert stats["probes"] == 1
        assert stats["recoveries"] == 1
        assert stats["open_keys"] == 0

    def test_failed_probe_reopens_with_a_fresh_cooldown(self):
        clock = _Clock()
        qb = QuarantineBreaker(threshold=1, cooldown=5.0, clock=clock)
        qb.record("k", "MemoryBudgetExceeded")
        clock.now += 5.1
        qb.check("k")  # probe admitted
        qb.record("k", "MemoryBudgetExceeded")  # probe died too
        with pytest.raises(Quarantined):
            qb.check("k")
        clock.now += 4.9  # fresh cooldown, not the stale one
        with pytest.raises(Quarantined):
            qb.check("k")
        assert qb.stats()["reopens"] == 1

    def test_probe_abort_returns_the_probe_slot(self):
        """A probe shed before execution must not reserve the slot
        forever: probe_aborted restores open-awaiting-probe, so the
        next check is admitted as a fresh probe."""
        clock = _Clock()
        qb = QuarantineBreaker(threshold=1, cooldown=5.0, clock=clock)
        assert qb.check("k") is False  # closed keys hold no probe
        qb.record("k", "WorkerCrashed")
        clock.now += 5.1
        assert qb.check("k") is True  # probe admitted
        with pytest.raises(Quarantined):
            qb.check("k")  # duplicate while the probe is reserved
        qb.probe_aborted("k")
        assert qb.check("k") is True  # slot returned: probes again
        qb.record("k", None)
        qb.check("k")  # recovered; closed again
        stats = qb.stats()
        assert stats["probes"] == 2
        assert stats["probe_aborts"] == 1
        assert stats["recoveries"] == 1
        assert stats["open_keys"] == 0
        # Aborting when no probe is reserved is a harmless no-op.
        qb.probe_aborted("k")
        qb.probe_aborted("never-seen")
        assert qb.stats()["probe_aborts"] == 1

    def test_non_poison_outcomes_never_trip(self):
        qb = QuarantineBreaker(threshold=1, cooldown=5.0)
        for benign in ("ExecutionFailed", "DeadlineExpired", None):
            qb.record("k", benign)
            qb.check("k")
        assert qb.stats()["trips"] == 0

    def test_tracked_keys_stay_bounded(self):
        clock = _Clock()
        qb = QuarantineBreaker(threshold=3, cooldown=5.0, max_keys=8, clock=clock)
        for i in range(50):
            qb.record(f"k{i}", "WorkerCrashed")
        assert qb.stats()["tracked_keys"] <= 8


# ----------------------------------------------------------------------
# Unit: broker bounds + prompt waiter failure on stop()
# ----------------------------------------------------------------------


class TestBrokerOverload:
    def test_bounded_queue_sheds_typed_overloaded(self):
        release = threading.Event()
        entered = threading.Event()

        def execute(batch):
            entered.set()
            release.wait(timeout=30)
            return {key: f"done:{key}" for key, _ in batch}

        broker = RequestBroker(execute, max_queue=2)
        broker.start()
        outcomes = {}

        def submit(key):
            outcomes[key] = broker.submit(key, None)

        try:
            # Park one batch in the executor so the queue can fill.
            blocker = threading.Thread(target=submit, args=("hold",))
            blocker.start()
            assert entered.wait(timeout=5)
            q1 = threading.Thread(target=submit, args=("q1",))
            q2 = threading.Thread(target=submit, args=("q2",))
            q1.start()
            q2.start()
            deadline = time.monotonic() + 5
            while broker.stats()["queue_depth"] < 2:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.005)
            with pytest.raises(Overloaded) as excinfo:
                broker.submit("q3", None)
            assert excinfo.value.http_status == 429
            assert broker.stats()["shed_queue_full"] == 1
            release.set()
            for t in (blocker, q1, q2):
                t.join(timeout=10)
            assert outcomes["q1"][0] == "done:q1"
        finally:
            release.set()
            broker.stop()

    def test_stop_fails_parked_waiters_promptly(self):
        """Satellite regression: waiters queued behind a stuck batch get
        a typed Draining outcome the moment stop() gives up waiting —
        not after the stuck batch (or a client timeout) unblocks."""
        release = threading.Event()
        entered = threading.Event()

        def execute(batch):
            entered.set()
            release.wait(timeout=30)
            return {key: f"done:{key}" for key, _ in batch}

        broker = RequestBroker(execute)
        broker.start()
        results = {}
        done = {name: threading.Event() for name in ("stuck", "q", "q2")}

        def submit(name, key):
            results[name] = broker.submit(key, None)
            done[name].set()

        threads = [threading.Thread(target=submit, args=("stuck", "A"))]
        threads[0].start()
        assert entered.wait(timeout=5)
        # Two waiters on the same queued key: one fresh, one coalesced.
        threads.append(threading.Thread(target=submit, args=("q", "B")))
        threads.append(threading.Thread(target=submit, args=("q2", "B")))
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 5
        while broker.stats()["submitted"] < 3:
            assert time.monotonic() < deadline
            time.sleep(0.005)

        stopper = threading.Thread(target=broker.stop)
        stopper.start()
        # The parked waiters unblock promptly — while the dispatcher is
        # still stuck inside the executor.
        assert done["q"].wait(timeout=2), "queued waiter not failed promptly"
        assert done["q2"].wait(timeout=2), "coalesced waiter not failed promptly"
        outcome_q, coalesced_q = results["q"]
        assert isinstance(outcome_q, Draining)
        assert isinstance(results["q2"][0], Draining)
        assert not release.is_set()  # executor really was still stuck
        # New submissions during/after stop are typed sheds too.
        with pytest.raises(Draining):
            broker.submit("C", None)
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        for t in threads:
            t.join(timeout=10)
        # The in-flight batch still completed for its own waiter.
        assert results["stuck"][0] == "done:A"


# ----------------------------------------------------------------------
# Unit: the service's guard pipeline (no daemon, no HTTP, no pool work)
# ----------------------------------------------------------------------


def _service(**config_kwargs):
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("obs_enabled", False)
    return PartitionService(ServiceConfig(**config_kwargs))


class TestHandleRequestGuards:
    """``handle_request`` driven directly against an unstarted service."""

    def test_cache_hits_bypass_the_draining_guard(self, h):
        svc = _service()
        raw = json.dumps(_body(h)).encode()
        request = parse_request(raw, hypergraphs=svc.cache)
        svc.cache.put(request.cache_key, canonical_bytes({"cutsize": 1}))
        svc._draining.set()
        status, body, _ = svc.handle_request(raw)
        assert status == 200
        assert json.loads(body)["served"]["cache"] == "hit"
        # An uncached request is still shed, typed.
        status2, body2, _ = svc.handle_request(
            json.dumps(_body(h, seed=99)).encode()
        )
        assert status2 == 503
        assert json.loads(body2)["error"]["type"] == "Draining"

    def test_shed_probe_slot_is_returned(self, h, monkeypatch):
        """Regression (high): a half-open probe shed before it reaches
        an execution must not quarantine its key permanently."""
        svc = _service(max_inflight=1)
        clock = _Clock()
        svc.breaker = QuarantineBreaker(threshold=1, cooldown=5.0, clock=clock)
        raw = json.dumps(_body(h)).encode()
        key = parse_request(raw, hypergraphs=svc.cache).cache_key
        svc.breaker.record(key, "WorkerCrashed")  # trips (threshold 1)
        clock.now += 5.1  # cooldown over: the next check admits a probe

        # Path 1: the probe is shed by the admission controller.
        svc.admission.admit()  # occupy the only slot
        status, body, _ = svc.handle_request(raw)
        assert status == 429
        assert json.loads(body)["error"]["type"] == "Overloaded"
        svc.admission.release(None)

        # Path 2: the probe is shed by the broker (queue full).
        def shed(key_, payload):
            raise Overloaded("dispatch queue is full")

        monkeypatch.setattr(svc.broker, "submit", shed)
        status, body, _ = svc.handle_request(raw)
        assert status == 429
        assert json.loads(body)["error"]["type"] == "Overloaded"

        # Path 3: broker.stop() raced us — the waiter receives the
        # typed draining outcome as an object, not a raise.
        monkeypatch.setattr(
            svc.broker,
            "submit",
            lambda key_, payload: (Draining("stopped", retry_after=1.0), False),
        )
        status, body, _ = svc.handle_request(raw)
        assert status == 503
        assert json.loads(body)["error"]["type"] == "Draining"

        # Every shed returned the probe slot: the key is still open and
        # still probeable — not stuck on "probe already in flight".
        assert svc.breaker.stats()["probe_aborts"] == 3
        assert svc.breaker.check(key) is True

    def test_broker_shed_does_not_feed_the_service_time_ewma(
        self, h, monkeypatch
    ):
        svc = _service()
        avg = svc.admission.stats()["avg_service_seconds"]

        def shed(key, payload):
            raise Overloaded("dispatch queue is full")

        monkeypatch.setattr(svc.broker, "submit", shed)
        status, _, _ = svc.handle_request(json.dumps(_body(h)).encode())
        assert status == 429
        assert svc.admission.stats()["avg_service_seconds"] == avg
        assert svc.admission.inflight == 0

    def test_drain_cut_execution_is_typed_without_a_breaker_vote(
        self, h, monkeypatch
    ):
        """An execution cut by pool.abort() is recognized structurally
        (TaskResult.aborted, not message text), maps to the 503 family,
        and neither forgives nor blames the key."""
        svc = _service()
        clock = _Clock()
        svc.breaker = QuarantineBreaker(threshold=1, cooldown=5.0, clock=clock)
        raw = json.dumps(_body(h)).encode()
        request = parse_request(raw, hypergraphs=svc.cache)
        key = request.cache_key
        svc.breaker.record(key, "WorkerCrashed")
        clock.now += 5.1
        assert svc.breaker.check(key) is True  # the probe rides this batch

        def cut_map(tasks):
            return (
                [
                    TaskResult(
                        key=k,
                        attempts=1,
                        error="service is draining mid-execution",
                        failure="aborted",
                    )
                    for k, _ in tasks
                ],
                SupervisionReport(),
            )

        monkeypatch.setattr(svc.pool, "map", cut_map)
        outcomes = svc._execute_batch([(key, request)])
        assert outcomes[key].error_type == "Draining"
        stats = svc.breaker.stats()
        assert stats["probe_aborts"] == 1  # the probe slot came back ...
        assert stats["recoveries"] == 0  # ... but the key was NOT forgiven
        assert svc.breaker.open_keys() == 1
        assert svc.breaker.check(key) is True  # probeable again

    def test_worker_error_text_mentioning_draining_is_not_a_drain(
        self, h, monkeypatch
    ):
        """Classification is structural: the failure kind the supervisor
        set picks the error type, whatever the message says.  A worker
        error whose own message contains 'draining' stays a 500
        ExecutionFailed, never a safe-to-retry 503."""
        svc = _service()
        request = parse_request(json.dumps(_body(h)).encode(), hypergraphs=svc.cache)
        key = request.cache_key
        cases = [
            ("error", "ValueError: draining the tank failed", "ExecutionFailed"),
            ("hang", "the worker stopped answering", "WorkerHung"),
            ("deadline", "out of time", "DeadlineExpired"),
            ("crash", "gone", "WorkerCrashed"),
            ("memory", "too big", "MemoryBudgetExceeded"),
            ("spawn", "no fork", "WorkerSpawnFailed"),
        ]
        for failure, message, error_type in cases:
            result = TaskResult(key=key, attempts=1, error=message, failure=failure)
            monkeypatch.setattr(
                svc.pool, "map", lambda tasks, r=result: ([r], SupervisionReport())
            )
            assert svc._execute_batch([(key, request)])[key].error_type == error_type

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("worker died without a result"),
            RuntimeError("hung past the 5s task timeout"),
        ],
    )
    def test_worker_exception_is_execution_failed_without_a_poison_vote(
        self, h, exc
    ):
        """A worker that raises is an in-worker error, whatever its
        message reads like: ExecutionFailed, and the breaker forgives
        the key instead of counting a poison failure."""
        svc = _service()
        svc.breaker = QuarantineBreaker(threshold=2, cooldown=5.0, clock=_Clock())

        def raising_worker(payload):
            raise exc

        svc.pool = SupervisedPool(
            raising_worker, max_workers=1, max_retries=0, sequential_fallback=False
        )
        request = parse_request(json.dumps(_body(h)).encode(), hypergraphs=svc.cache)
        key = request.cache_key
        svc.breaker.record(key, "WorkerCrashed")  # one poison vote already
        outcome = svc._execute_batch([(key, request)])[key]
        assert outcome.error_type == "ExecutionFailed"
        stats = svc.breaker.stats()
        assert stats["trips"] == 0
        assert stats["tracked_keys"] == 0  # reset, not a second vote


# ----------------------------------------------------------------------
# Unit: client retry policy + wait_ready
# ----------------------------------------------------------------------


def _scripted_client(monkeypatch, script):
    """A TCP-configured client whose transport plays back ``script``."""
    client = ServiceClient(
        url="http://127.0.0.1:1", backoff_base=0.001, backoff_cap=0.005
    )
    calls = []

    def fake_request_once(method, path, body=None):
        calls.append((method, path))
        step = script[min(len(calls) - 1, len(script) - 1)]
        if isinstance(step, Exception):
            raise step
        return step

    monkeypatch.setattr(client, "_request_once", fake_request_once)
    return client, calls


def _error_body(error_type, message="x", retry_after=None):
    error = {"type": error_type, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return json.dumps({"error": error}).encode()


class TestBrokerDispatchers:
    def test_distinct_keys_are_inside_the_executor_at_once(self):
        # Each dispatch waits at a 2-party barrier: it only opens when a
        # second dispatcher brings the other key in while the first
        # is still executing.
        barrier = threading.Barrier(2, timeout=5)

        def execute(batch):
            assert len(batch) == 1
            barrier.wait()
            return {key: f"done:{key}" for key, _ in batch}

        broker = RequestBroker(execute, workers=2)
        broker.start()
        results = {}

        def submit(key):
            results[key] = broker.submit(key, None)

        threads = [threading.Thread(target=submit, args=(k,)) for k in "ab"]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert results == {"a": ("done:a", False), "b": ("done:b", False)}
            stats = broker.stats()
            assert stats["batches"] == 2 and stats["executed"] == 2
        finally:
            broker.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_at_most_workers_dispatches_run_oldest_first(self, workers):
        lock = threading.Lock()
        running = [0]
        peak = [0]
        order = []
        release = threading.Event()

        def execute(batch):
            (key, _), = batch
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                order.append(key)
            release.wait(timeout=10)
            with lock:
                running[0] -= 1
            return {key: key}

        broker = RequestBroker(execute, workers=workers)
        broker.start()
        keys = [f"k{i}" for i in range(6)]
        threads = []
        try:
            # Submit one at a time so the queue order is known.
            for i, key in enumerate(keys):
                threads.append(threading.Thread(target=broker.submit, args=(key, None)))
                threads[-1].start()
                deadline = time.monotonic() + 5
                while broker.stats()["submitted"] < i + 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
            deadline = time.monotonic() + 5
            while len(order) < workers:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            assert broker.stats()["queue_depth"] == len(keys) - workers
            assert sorted(order) == keys[:workers]
            release.set()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert peak[0] == workers
            assert broker.stats()["executed"] == len(keys)
            if workers == 1:
                assert order == keys
        finally:
            release.set()
            broker.stop()

    def test_stress_keeps_every_tally_and_outcome(self):
        """More submitters than cores, a fast thread switch, and keys that
        repeat: every submit gets its own key's outcome, no key runs
        twice at once, and the tallies add up."""
        lock = threading.Lock()
        running: set[str] = set()
        calls = [0]
        overlaps = []

        def execute(batch):
            (key, payload), = batch
            with lock:
                if key in running:
                    overlaps.append(key)
                running.add(key)
                calls[0] += 1
            time.sleep(0.001)
            with lock:
                running.discard(key)
            return {key: payload}

        broker = RequestBroker(execute, workers=3)
        broker.start()
        stop_at = time.monotonic() + 1.5
        mismatches = []
        submits = [0] * 8

        def submitter(i):
            n = 0
            while time.monotonic() < stop_at:
                key = f"k{(i * 7 + n) % 5}"
                outcome, _coalesced = broker.submit(key, key)
                if outcome != key:
                    mismatches.append((key, outcome))
                n += 1
            submits[i] = n

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            broker.stop()
        assert not mismatches and not overlaps
        stats = broker.stats()
        assert stats["submitted"] == sum(submits)
        assert stats["executed"] == stats["batches"] == calls[0]
        assert stats["executed"] + stats["coalesced"] == stats["submitted"]
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            RequestBroker(lambda batch: {}, workers=0)


class TestClientRetryPolicy:
    def test_retries_typed_429_then_succeeds(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch,
            [
                (429, _error_body("Overloaded"), 0.001),
                (429, _error_body("Overloaded"), None),
                (200, b'{"ok": true}', None),
            ],
        )
        assert client.request("POST", "/partition", {"x": 1}) == {"ok": True}
        assert len(calls) == 3

    def test_retries_connection_refused(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch,
            [
                ServiceConnectionError("nope", refused=True),
                (200, b'{"ok": true}', None),
            ],
        )
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(calls) == 2

    def test_never_retries_typed_4xx_request_errors(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch, [(400, _error_body("RequestError"), None)]
        )
        with pytest.raises(ServiceResponseError):
            client.request("POST", "/partition", {"x": 1})
        assert len(calls) == 1

    def test_never_retries_execution_failures(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch, [(500, _error_body("WorkerCrashed"), None)]
        )
        with pytest.raises(ServiceResponseError):
            client.request("POST", "/partition", {"x": 1})
        assert len(calls) == 1

    def test_never_retries_quarantined(self, monkeypatch):
        # Quarantine cooldowns are long by design; hammering them is
        # what the breaker exists to prevent.
        client, calls = _scripted_client(
            monkeypatch, [(503, _error_body("Quarantined"), 30.0)]
        )
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("POST", "/partition", {"x": 1})
        assert excinfo.value.retry_after == 30.0
        assert len(calls) == 1

    def test_never_retries_midflight_transport_failures(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch, [ServiceClientError("connection reset mid-read")]
        )
        with pytest.raises(ServiceClientError):
            client.request("POST", "/partition", {"x": 1})
        assert len(calls) == 1

    def test_retries_exhaust_with_the_typed_error(self, monkeypatch):
        client, calls = _scripted_client(
            monkeypatch, [(503, _error_body("Draining"), 0.001)]
        )
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("POST", "/partition", {"x": 1})
        assert excinfo.value.error_type == "Draining"
        assert len(calls) == 1 + client.max_retries


class TestWaitReady:
    def test_poll_interval_doubles_up_to_50ms(self, monkeypatch):
        """The probe schedule against a refused socket, on a fake clock:
        a daemon that comes up is noticed within 50 ms."""
        from repro.server import client as client_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens: every connect is refused

        class FakeClock:
            def __init__(self):
                self.now = 0.0
                self.sleeps: list[float] = []

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.sleeps.append(round(seconds, 6))
                self.now += seconds

        clock = FakeClock()
        monkeypatch.setattr(client_module, "time", clock)
        client = ServiceClient(url=f"http://127.0.0.1:{port}", timeout=0.5)
        with pytest.raises(ServiceClientError, match="not ready"):
            client.wait_ready(timeout=1.0)
        assert clock.sleeps[:5] == [0.02, 0.04, 0.05, 0.05, 0.05]
        assert max(clock.sleeps) == 0.05
        probes, t = [0.0], 0.0
        for seconds in clock.sleeps:
            t += seconds
            probes.append(round(t, 6))
        assert probes[:6] == [0.0, 0.02, 0.06, 0.11, 0.16, 0.21]
        assert probes[-1] == pytest.approx(1.0)

    def test_fails_fast_on_a_broken_listener(self):
        """Something listening but speaking garbage is not 'not up yet':
        wait_ready must surface it immediately, not burn the timeout."""
        server = socket_module.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        port = server.getsockname()[1]

        def answer_garbage():
            conn, _ = server.accept()
            conn.recv(1024)
            conn.sendall(b"not http at all\r\n\r\n")
            conn.close()

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        client = ServiceClient(url=f"http://127.0.0.1:{port}", timeout=2.0)
        t0 = time.monotonic()
        try:
            with pytest.raises(ServiceClientError):
                client.wait_ready(timeout=20.0)
            assert time.monotonic() - t0 < 10.0, "burned the timeout polling"
        finally:
            server.close()


# ----------------------------------------------------------------------
# Integration: live daemon under overload / quarantine / drain
# ----------------------------------------------------------------------


def _start(**config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    svc = PartitionService(config).start()
    client = ServiceClient(url=svc.url, timeout=120.0, max_retries=0)
    client.wait_ready(timeout=10.0)
    return svc, client


def _body(h, seed=0, starts=5):
    return {
        "op": "partition",
        "engine": "fm",
        "hypergraph": hypergraph_to_payload(h),
        "settings": {"seed": seed, "starts": starts},
    }


@pytest.mark.chaos
class TestOverloadIntegration:
    def test_admission_sheds_typed_429_with_retry_after_header(self, h):
        svc, client = _start(workers=1, max_inflight=1, max_queue=64)
        try:
            faults.configure("server.request=slow:1:0.4", seed=3)
            first_done = threading.Event()

            def occupy():
                try:
                    client.partition(h, engine="fm", settings={"seed": 0})
                finally:
                    first_done.set()

            occupier = threading.Thread(target=occupy)
            occupier.start()
            # Wait until the slot is actually taken.
            deadline = time.monotonic() + 5
            while client.metrics()["admission"]["inflight"] < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            status, raw, retry_after = client._request_once(
                "POST", "/partition", json.dumps(_body(h, seed=1)).encode()
            )
            assert status == 429
            error = json.loads(raw)["error"]
            assert error["type"] == "Overloaded"
            assert retry_after is not None and retry_after >= 1
            assert client.healthz()["status"] == "ok"
            first_done.wait(timeout=30)
            occupier.join(timeout=30)
            metrics = client.metrics()
            assert metrics["service"]["shed_overloaded"] >= 1
            assert metrics["admission"]["shed"] >= 1
        finally:
            svc.stop()

    def test_breaker_trips_probes_and_recovers_over_http(self, h):
        svc, client = _start(
            workers=1,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=0.5,
        )
        try:
            faults.configure("server.request=kill:1", seed=19)
            for _ in range(2):
                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 7})
                assert excinfo.value.error_type == "WorkerCrashed"
            executions_before = client.metrics()["service"]["executions"]
            # Tripped: identical submissions shed without touching the pool.
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 7})
            assert excinfo.value.status == 503
            assert excinfo.value.error_type == "Quarantined"
            assert excinfo.value.retry_after is not None
            assert client.metrics()["service"]["executions"] == executions_before
            # A *different* request is unaffected by the quarantine
            # (still crashing here, but it reaches the pool).
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 8})
            assert excinfo.value.error_type == "WorkerCrashed"
            # Cooldown passes, the fault clears: the half-open probe
            # executes and the key recovers.
            faults.configure(None)
            time.sleep(0.6)
            response = client.partition(h, engine="fm", settings={"seed": 7})
            assert response["result"]["cutsize"] >= 1
            breaker = client.metrics()["breaker"]
            assert breaker["trips"] >= 1
            assert breaker["probes"] >= 1
            assert breaker["recoveries"] >= 1
            assert breaker["open_keys"] == 0
            assert client.metrics()["service"]["shed_quarantined"] >= 1
        finally:
            svc.stop()

    def test_drain_finishes_inflight_and_sheds_new_work(self, h):
        svc, client = _start(workers=1, drain_timeout=10.0)
        try:
            faults.configure("server.request=slow:1:0.5", seed=5)
            inflight_response = {}

            def fire():
                inflight_response["r"] = client.partition(
                    h, engine="fm", settings={"seed": 0}
                )

            worker = threading.Thread(target=fire)
            worker.start()
            deadline = time.monotonic() + 5
            while client.metrics()["admission"]["inflight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)

            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            deadline = time.monotonic() + 5
            while client.healthz()["status"] != "draining":
                assert time.monotonic() < deadline, "healthz never drained"
                time.sleep(0.01)
            # New work is shed, typed, with a Retry-After header.
            status, raw, retry_after = client._request_once(
                "POST", "/partition", json.dumps(_body(h, seed=1)).encode()
            )
            assert status == 503
            assert json.loads(raw)["error"]["type"] == "Draining"
            assert retry_after is not None
            worker.join(timeout=30)
            stopper.join(timeout=30)
            # The in-flight request finished normally despite the drain.
            assert inflight_response["r"]["result"]["cutsize"] >= 1
        finally:
            faults.configure(None)
            svc.stop()

    def test_drain_timeout_cuts_stragglers_with_typed_error(self, h):
        svc, client = _start(workers=1, drain_timeout=0.3, task_timeout=None)
        try:
            faults.configure("server.request=slow:1:20", seed=9)
            outcome = {}

            def fire():
                try:
                    outcome["r"] = client.partition(
                        h, engine="fm", settings={"seed": 0}
                    )
                except ServiceClientError as exc:
                    outcome["error"] = exc

            worker = threading.Thread(target=fire)
            worker.start()
            deadline = time.monotonic() + 5
            while client.metrics()["admission"]["inflight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            t0 = time.monotonic()
            svc.stop()
            # stop() must not ride out the 20 s fault.
            assert time.monotonic() - t0 < 15.0
            worker.join(timeout=30)
            error = outcome.get("error")
            assert error is not None, f"straggler was not cut: {outcome}"
            assert isinstance(error, ServiceResponseError)
            assert error.status == 503
            assert error.error_type == "Draining"
        finally:
            faults.configure(None)
            svc.stop()

    def test_second_stop_does_not_unlink_a_reclaimed_socket(self, h, tmp_path):
        """The socket file is removed exactly once: a second stop() must
        not delete a path a successor daemon has since claimed."""
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("AF_UNIX sockets are not available on this platform")
        path = str(tmp_path / "svc.sock")
        svc = PartitionService(ServiceConfig(socket_path=path, workers=1)).start()
        svc.stop()
        assert not os.path.exists(path)
        successor = PartitionService(
            ServiceConfig(socket_path=path, workers=1)
        ).start()
        try:
            svc.stop()  # idempotent: must not touch the successor's socket
            assert os.path.exists(path)
            client = ServiceClient(socket_path=path, timeout=30.0)
            assert client.wait_ready(timeout=10.0)["status"] == "ok"
        finally:
            successor.stop()
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Subprocess daemon: SIGTERM drain over AF_UNIX + the soak run
# ----------------------------------------------------------------------


def _spawn_daemon(socket_path, *extra_args, fault=None):
    """Start ``serve`` on ``socket_path`` and wait for its banner.

    stdout stays a pipe for the banner (the caller closes it); stderr
    goes to ``<socket_path>.stderr``, so a chatty daemon can never fill
    a pipe nobody reads and block.
    """
    env = dict(os.environ, PYTHONPATH="src")
    if fault:
        env["REPRO_FAULTS"] = fault
    with open(f"{socket_path}.stderr", "wb") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                socket_path,
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    banner = proc.stdout.readline().strip()
    assert banner == f"serving on unix:{socket_path}", banner
    return proc


def _pids_mentioning(needle: str) -> list[int]:
    """PIDs whose cmdline contains ``needle`` (orphaned-worker sweep)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry))
    return found


@pytest.mark.chaos
class TestSigtermDrainSubprocess:
    def test_sigterm_during_inflight_unix_request(self, h, tmp_path):
        """Satellite: SIGTERM while a unix-socket request is in flight —
        the request completes, the process exits cleanly, and the socket
        file is gone afterwards."""
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("AF_UNIX sockets are not available on this platform")
        socket_path = str(tmp_path / "drain.sock")
        proc = _spawn_daemon(
            socket_path,
            "--workers",
            "1",
            "--drain-timeout",
            "10",
            fault="server.request=slow:1:0.5",
        )
        try:
            client = ServiceClient(socket_path=socket_path, timeout=60.0)
            client.wait_ready(timeout=10.0)
            response_box = {}

            def fire():
                response_box["r"] = client.partition(
                    h, engine="fm", settings={"seed": 0}
                )

            worker = threading.Thread(target=fire)
            worker.start()
            # Give the request time to be admitted, then pull the plug.
            deadline = time.monotonic() + 5
            admitted = False
            while time.monotonic() < deadline and not admitted:
                try:
                    admitted = client.metrics()["admission"]["inflight"] >= 1
                except ServiceClientError:
                    break
                time.sleep(0.01)
            assert admitted, "in-flight request never admitted"
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=30)
            proc.wait(timeout=30)
            assert proc.returncode == 0
            # The in-flight request completed despite the SIGTERM.
            assert response_box["r"]["result"]["cutsize"] >= 1
            # Exactly-once socket cleanup: the file is gone.
            assert not os.path.exists(socket_path)
            assert _pids_mentioning(socket_path) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()


@pytest.mark.chaos
class TestSoak:
    def test_soak_overload_sheds_typed_and_drains_clean(self, tmp_path):
        """The acceptance soak: sustained 4x-capacity load with slowed
        workers.  Typed sheds, responsive /healthz, bounded RSS, clean
        SIGTERM drain, no socket file, no orphaned workers."""
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("AF_UNIX sockets are not available on this platform")
        socket_path = str(tmp_path / "soak.sock")
        proc = _spawn_daemon(
            socket_path,
            "--workers",
            "2",
            "--max-inflight",
            "4",
            "--max-queue",
            "8",
            "--drain-timeout",
            "10",
            "--cache-max-entries",
            "2",  # < distinct keys: misses keep coming, pressure sustains
            fault="server.request=slow:1:0.15",
        )
        try:
            client = ServiceClient(socket_path=socket_path, timeout=60.0)
            client.wait_ready(timeout=10.0)
            report = run_load(
                socket_path=socket_path,
                duration=4.0,
                clients=16,  # 4x the admission budget
                distinct=6,
                vertices=14,
                starts=3,
                seed=0,
                healthz_budget=1.0,
                server_pid=proc.pid,
            )
            # Load really ran and the daemon shed the excess, typed.
            assert report.total_requests > 20
            assert report.outcomes.get("ok", 0) > 0
            assert report.shed_total > 0, report.outcomes
            # No untyped failures: every non-ok answer was a typed shed.
            assert report.outcomes.get("error", 0) == 0, report.outcomes
            assert report.outcomes.get("transport_error", 0) == 0
            # The control plane stayed responsive under the stampede.
            assert report.healthz_failures == 0
            assert report.healthz_latency["count"] > 0
            # Bounded memory: the daemon's RSS stayed under 1 GiB.
            assert report.rss_peak_bytes is not None
            assert report.rss_peak_bytes < 1 << 30
            # Bounded queue: the broker never grew past its cap.
            after = report.metrics_after
            assert after is not None
            assert after["broker"]["peak_queue_depth"] <= 8
            assert after["service"]["shed_overloaded"] + after["service"].get(
                "shed_draining", 0
            ) >= report.shed_total
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()
        assert proc.returncode == 0
        assert not os.path.exists(socket_path)
        assert _pids_mentioning(socket_path) == []
