"""Chaos tests for the partition service: the daemon must outlive its work.

Fault injection at the ``server.request`` site (inside the forked pool
worker) drives worker kills, hangs, and memory blow-ups through a live
daemon.  The contract under test:

* a crashed / hung / over-budget request becomes a **typed, structured
  error response** (500 with a stable ``error.type``) — never a stack
  trace, never a daemon death;
* the daemon keeps answering ``/healthz`` and serving other requests
  throughout, and returns to full service the moment faults clear;
* cache entries survive the chaos (results are content-addressed, not
  session-addressed).

Run with ``-m chaos`` (the tier-1 run deselects these).
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.core.hypergraph import Hypergraph
from repro.io import write_json
from repro.io.json_io import hypergraph_to_payload
from repro.runtime import faults
from repro.server import (
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceResponseError,
)

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean_slate():
    """No fault config or obs state leaks in either direction."""
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


def _start(**config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    svc = PartitionService(config).start()
    client = ServiceClient(url=svc.url, timeout=120.0)
    client.wait_ready(timeout=10.0)
    return svc, client


class TestChaosSession:
    def test_kill_hang_and_oom_in_one_session(self, h):
        """The acceptance scenario: worker kill + hang + over-budget
        request in one daemon session, typed error for each, daemon
        healthy throughout, full service afterwards."""
        svc, client = _start(
            workers=2,
            max_retries=0,
            task_timeout=1.5,
            memory_limit_mb=256,
        )
        try:
            # Healthy baseline; also plants a cache entry for later.
            baseline = client.partition(h, engine="fm", settings={"seed": 0})
            assert baseline["served"]["cache"] == "miss"

            # 1. Worker killed mid-request -> typed crash error.
            faults.configure("server.request=kill:1", seed=11)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 1})
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "WorkerCrashed"
            assert "Traceback" not in json.dumps(excinfo.value.error)
            assert client.healthz()["status"] == "ok"

            # 2. Worker hangs past the task timeout -> typed hang error.
            faults.configure("server.request=hang:1:30", seed=13)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 2})
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "WorkerHung"
            assert client.healthz()["status"] == "ok"

            # 3. Worker blows its memory budget -> typed budget error.
            faults.configure("server.request=oom:1", seed=17)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 3})
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "MemoryBudgetExceeded"
            assert client.healthz()["status"] == "ok"

            # Faults off: the daemon returns to full service at once.
            faults.configure(None)
            fresh = client.partition(h, engine="fm", settings={"seed": 4})
            assert fresh["served"]["cache"] == "miss"
            # The pre-chaos cache entry survived the whole ordeal.
            cached = client.partition(h, engine="fm", settings={"seed": 0})
            assert cached["served"]["cache"] == "hit"
            assert cached["result"] == baseline["result"]
            metrics = client.metrics()
            assert metrics["service"]["failures"] >= 3
            assert metrics["obs"]["counters"]["server.errors"] >= 3
        finally:
            svc.stop()

    def test_crash_is_retried_then_reported_with_attempts(self, h):
        svc, client = _start(workers=1, max_retries=2)
        try:
            faults.configure("server.request=kill:1", seed=7)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 9})
            # max_retries=2 -> 3 attempts, all killed, then a typed error.
            assert excinfo.value.error["attempts"] == 3
            assert excinfo.value.error_type == "WorkerCrashed"
        finally:
            svc.stop()

    def test_probabilistic_crashes_leave_other_requests_alone(self, h):
        svc, client = _start(workers=2, max_retries=3)
        try:
            # 50% kill rate with retries: every request should still
            # eventually succeed (p(4 kills in a row) = 1/16 per
            # request, and the deterministic per-pid rng makes the
            # outcome reproducible for a fixed seed).
            faults.configure("server.request=kill:0.5", seed=23)
            statuses = []
            for seed in range(6):
                try:
                    response = client.partition(
                        h, engine="fm", settings={"seed": seed}
                    )
                    statuses.append(response["served"]["cache"])
                except ServiceResponseError as exc:
                    statuses.append(exc.error_type)
            assert client.healthz()["status"] == "ok"
            # Deterministic engines: whatever survived reports the true cut.
            faults.configure(None)
            clean = client.partition(h, engine="fm", settings={"seed": 0})
            assert clean["result"]["cutsize"] >= 1
        finally:
            svc.stop()

    def test_cache_hits_bypass_faults_entirely(self, h):
        svc, client = _start(workers=1, max_retries=0)
        try:
            warm = client.partition(h, engine="fm", settings={"seed": 0})
            faults.configure("server.request=kill:1", seed=3)
            # A cache hit never reaches the pool, so it succeeds even
            # while every execution is being killed.
            hit = client.partition(h, engine="fm", settings={"seed": 0})
            assert hit["served"]["cache"] == "hit"
            assert hit["result"] == warm["result"]
            with pytest.raises(ServiceResponseError):
                client.partition(h, engine="fm", settings={"seed": 1})
        finally:
            svc.stop()

    def test_slow_faults_only_slow_things_down(self, h):
        svc, client = _start(workers=2, max_retries=0, task_timeout=30.0)
        try:
            faults.configure("server.request=slow:1:0.05", seed=5)
            response = client.partition(h, engine="fm", settings={"seed": 0})
            assert response["served"]["cache"] == "miss"
            assert response["result"]["cutsize"] >= 1
        finally:
            svc.stop()


class TestEnvDrivenFaults:
    """The REPRO_FAULTS env grammar reaches a daemon subprocess."""

    def test_daemon_subprocess_with_env_faults(self, tmp_path, h):
        graph_path = tmp_path / "h.json"
        write_json(h, graph_path)
        socket_path = str(tmp_path / "svc.sock")
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("AF_UNIX sockets are not available on this platform")
        env = dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_FAULTS="server.request=kill:1",
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                socket_path,
                "--workers",
                "1",
                "--max-retries",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner == f"serving on unix:{socket_path}"
            client = ServiceClient(socket_path=socket_path, timeout=60.0)
            client.wait_ready(timeout=10.0)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(h, engine="fm", settings={"seed": 0})
            assert excinfo.value.error_type == "WorkerCrashed"
            assert client.healthz()["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)


class TestBrokerUnderChaos:
    def test_coalesced_requests_share_the_failure(self, h):
        import threading

        svc, client = _start(workers=1, max_retries=0)
        try:
            # The slow request site holds the one execution open while
            # every thread joins it; the FM pass then kills the worker.
            faults.configure(
                "server.request=slow:1:0.5,baseline.fm.pass=kill:1", seed=29
            )
            body = {
                "op": "partition",
                "engine": "fm",
                "hypergraph": hypergraph_to_payload(h),
                "settings": {"seed": 42},
            }
            raw = json.dumps(body).encode()
            n = 4
            barrier = threading.Barrier(n)
            outcomes: list[tuple[int, str]] = []
            lock = threading.Lock()

            def fire():
                barrier.wait(timeout=10)
                status, response = client.request_raw("POST", "/partition", raw)
                with lock:
                    outcomes.append(
                        (status, json.loads(response)["error"]["type"])
                    )

            threads = [threading.Thread(target=fire) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == n
            assert all(status == 500 for status, _ in outcomes)
            assert all(kind == "WorkerCrashed" for _, kind in outcomes)
            # One execution attempt served all coalesced waiters its error.
            assert client.metrics()["service"]["executions"] == 1
            # Failures are not cached: the next attempt executes afresh.
            faults.configure(None)
            clean = client.partition(h, engine="fm", settings={"seed": 42})
            assert clean["served"]["cache"] == "miss"
        finally:
            svc.stop()

    def test_daemon_restarts_cleanly_after_chaos(self, h, tmp_path):
        # Two sequential daemons on the same UNIX socket path: the
        # second start must not trip over the first session's corpse.
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("AF_UNIX sockets are not available on this platform")
        path = str(tmp_path / "svc.sock")
        svc = PartitionService(
            ServiceConfig(socket_path=path, workers=1, max_retries=0)
        ).start()
        client = ServiceClient(socket_path=path, timeout=60.0)
        client.wait_ready(timeout=10.0)
        faults.configure("server.request=kill:1", seed=31)
        with pytest.raises(ServiceResponseError):
            client.partition(h, engine="fm", settings={"seed": 0})
        svc.stop()
        faults.configure(None)
        svc2 = PartitionService(
            ServiceConfig(socket_path=path, workers=1)
        ).start()
        try:
            client2 = ServiceClient(socket_path=path, timeout=60.0)
            client2.wait_ready(timeout=10.0)
            response = client2.partition(h, engine="fm", settings={"seed": 0})
            assert response["served"]["cache"] == "miss"
        finally:
            svc2.stop()
