"""Crash-recovery, integrity, and failover chaos for the partition daemon.

Real daemon subprocesses, real SIGKILLs.  The contract under test (the
PR's acceptance scenario, end to end):

1. **warm restart** — cache entries persisted under ``--state-dir``
   before a SIGKILL are served after restart, byte-identical, without
   re-execution;
2. **quarantine carryover** — a key quarantined before the kill is
   still answered ``503 Quarantined`` by the restarted daemon until its
   cooldown (which kept counting through the downtime) elapses;
3. **integrity** — a bit-flip injected via the ``server.verify`` chaos
   site into result bytes is caught by the boundary verify gate: typed
   ``IntegrityError`` 500, ``verify_failures`` counted, nothing corrupt
   cached, persisted, or served (persisted-record corruption is the
   unit half, ``tests/test_persist.py``);
4. **failover** — a two-endpoint :class:`ServiceClient` completes its
   workload across a daemon kill with no duplicated execution.

Plus the ``serve --autorestart`` watchdog (restart-on-SIGKILL with
state recovery, crash-loop give-up) and the ``soak --json`` /
``bench --verify`` operator surfaces.

Run with ``-m chaos`` (the CI tier-1 job deselects these; the server
recovery CI leg runs them).  Every test runs under ``no_leaked_handles``:
clients are closed, and every daemon subprocess is reaped with its
pipes closed, however it ended.
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
from repro.cli import main as cli_main
from repro.core.hypergraph import Hypergraph
from repro.runtime import faults
from repro.server import (
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceConnectionError,
    ServiceResponseError,
)

pytestmark = [pytest.mark.chaos, pytest.mark.usefixtures("no_leaked_handles")]

_NEEDS_AF_UNIX = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"),
    reason="AF_UNIX sockets are not available on this platform",
)


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


def _canonical(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


def _spawn(socket_path: str, *extra_args: str, faults_spec: str | None = None):
    """One daemon subprocess on ``socket_path``; returns it banner-ready."""
    env = dict(os.environ, PYTHONPATH="src")
    if faults_spec is not None:
        env["REPRO_FAULTS"] = faults_spec
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
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline().strip()
    assert banner == f"serving on unix:{socket_path}", banner
    return proc


def _close_pipes(proc) -> None:
    proc.stdout.close()
    proc.stderr.close()


def _kill(proc) -> None:
    """SIGKILL ``proc``, reap it and close its pipes."""
    proc.kill()
    proc.wait(timeout=15)
    _close_pipes(proc)


def _stop(proc) -> None:
    """SIGTERM ``proc`` if it still runs (SIGKILL after 15 s), reap it, close its pipes."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    _close_pipes(proc)


def _client(socket_path: str, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("max_retries", 0)
    client = ServiceClient(socket_path=socket_path, **kwargs)
    client.wait_ready(timeout=15.0)
    return client


@_NEEDS_AF_UNIX
class TestCrashRecovery:
    def test_cache_and_quarantine_survive_sigkill(self, tmp_path, h):
        """Acceptance clauses 1 + 2 across two SIGKILLs.

        Generation A executes and persists a result, then dies hard.
        Generation B (every pool execution killed by an armed fault)
        proves the rehydrated entry serves as a warm hit without
        touching the pool, poisons a second key into quarantine, and
        dies hard too.  Generation C (faults off) still serves the warm
        hit byte-identically, still quarantines the poisoned key, and
        finally admits the half-open probe once the cooldown — which
        spanned two crashes — elapses.
        """
        socket_path = str(tmp_path / "svc.sock")
        state_args = (
            "--state-dir", str(tmp_path / "state"),
            "--breaker-threshold", "1",
            "--breaker-cooldown", "8.0",
        )

        # --- generation A: plant a durable cache entry, die hard.
        proc = _spawn(socket_path, *state_args)
        try:
            with _client(socket_path) as client:
                baseline = client.partition(h, engine="fm", settings={"seed": 0})
            assert baseline["served"]["cache"] == "miss"
        finally:
            _kill(proc)

        # --- generation B: all executions die; the warm hit must not
        # care, and one poisoned key must trip the breaker durably.
        proc = _spawn(
            socket_path, *state_args, faults_spec="server.request=kill:1"
        )
        poisoned_at = None
        try:
            with _client(socket_path) as client:
                warm = client.partition(h, engine="fm", settings={"seed": 0})
                assert warm["served"]["cache"] == "hit"
                assert _canonical(warm["result"]) == _canonical(baseline["result"])

                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 1})
                assert excinfo.value.error_type == "WorkerCrashed"
                poisoned_at = time.monotonic()
                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 1})
                assert excinfo.value.status == 503
                assert excinfo.value.error_type == "Quarantined"
        finally:
            _kill(proc)

        # --- generation C: no faults; recovery must carry both halves.
        proc = _spawn(socket_path, *state_args)
        try:
            with _client(socket_path) as client:
                persist = client.metrics()["persist"]
                assert persist["rehydrated_cache"] >= 1
                assert persist["rehydrated_breaker"] >= 1

                # Clause 1: the pre-crash entry is a byte-identical warm hit.
                warm = client.partition(h, engine="fm", settings={"seed": 0})
                assert warm["served"]["cache"] == "hit"
                assert _canonical(warm["result"]) == _canonical(baseline["result"])

                # Clause 2: the poisoned key is still cooling, not forgotten.
                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 1})
                assert excinfo.value.status == 503
                assert excinfo.value.error_type == "Quarantined"
                remaining = excinfo.value.retry_after or excinfo.value.error.get(
                    "retry_after"
                )
                assert remaining is not None and 0 < remaining <= 8.0
                # The cooldown kept counting through the crash: what is left
                # is the original 8 s minus the downtime, not a fresh 8 s.
                downtime = time.monotonic() - poisoned_at
                assert remaining <= max(0.5, 8.0 - downtime + 1.5)

                # Once it elapses, the half-open probe runs clean and the
                # key earns its way back in.
                time.sleep(min(remaining + 0.4, 9.0))
                recovered = client.partition(h, engine="fm", settings={"seed": 1})
                assert recovered["served"]["cache"] == "miss"
                assert client.metrics()["breaker"]["recoveries"] >= 1
        finally:
            _stop(proc)

    def test_corrupt_results_are_detected_never_cached(self, tmp_path, h):
        """Acceptance clause 3 (live half): an armed ``server.verify``
        rule flips a digit in every result's canonical bytes; the
        boundary gate must turn each into a typed 500, count it, vote
        poison, and keep the corrupt bytes out of the cache and the
        state log."""
        socket_path = str(tmp_path / "svc.sock")
        state_args = (
            "--state-dir", str(tmp_path / "state"),
            "--breaker-threshold", "2",
            "--breaker-cooldown", "30.0",
        )
        proc = _spawn(
            socket_path, *state_args, faults_spec="server.verify=error:1"
        )
        try:
            with _client(socket_path) as client:
                for _attempt in range(2):
                    with pytest.raises(ServiceResponseError) as excinfo:
                        client.partition(h, engine="fm", settings={"seed": 0})
                    assert excinfo.value.status == 500
                    assert excinfo.value.error_type == "IntegrityError"
                    assert "verification" in str(excinfo.value)
                # Two integrity failures for one key: quarantined like any
                # other worker that reliably betrays its requests.
                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 0})
                assert excinfo.value.status == 503
                assert excinfo.value.error_type == "Quarantined"

                metrics = client.metrics()
                assert metrics["service"]["verify_failures"] == 2
                assert metrics["obs"]["counters"]["server.verify.failures"] == 2
                # Nothing corrupt was cached or persisted as a result.
                assert metrics["cache"]["insertions"] == 0
                assert metrics["persist"]["live"] <= 1  # breaker record only
                assert client.healthz()["status"] == "ok"
        finally:
            _kill(proc)

        # A clean daemon on the same state dir starts and serves fine —
        # whatever the armed rule damaged in the persisted breaker
        # records was skipped or rehydrated, never fatal.
        proc = _spawn(socket_path, *state_args)
        try:
            with _client(socket_path) as client:
                fresh = client.partition(h, engine="fm", settings={"seed": 7})
                assert fresh["served"]["cache"] == "miss"
                assert client.healthz()["status"] == "ok"
        finally:
            _stop(proc)


@_NEEDS_AF_UNIX
class TestClientFailover:
    def test_workload_completes_across_a_kill(self, tmp_path, h):
        """Acceptance clause 4: a two-endpoint client finishes its
        workload across a SIGKILL of the active daemon, and the work
        done before the kill is not re-executed on the survivor."""
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        proc_a = _spawn(path_a)
        proc_b = _spawn(path_b)
        try:
            with ServiceClient(
                endpoints=[f"unix:{path_a}", f"unix:{path_b}"],
                timeout=60.0,
                max_retries=3,
            ) as client:
                client.wait_ready(timeout=15.0)
                assert client.active_endpoint == f"unix:{path_a}"

                for seed in range(3):
                    response = client.partition(
                        h, engine="fm", settings={"seed": seed}
                    )
                    assert response["served"]["cache"] == "miss"

                proc_a.kill()
                proc_a.wait(timeout=15)

                for seed in range(3, 7):
                    response = client.partition(
                        h, engine="fm", settings={"seed": seed}
                    )
                    assert response["served"]["cache"] == "miss"

                assert client.failovers == 1
                assert client.active_endpoint == f"unix:{path_b}"

            # No duplicated execution: the survivor ran exactly the
            # post-kill seeds, nothing from before the kill.
            with ServiceClient(socket_path=path_b, timeout=30.0) as probe:
                metrics_b = probe.metrics()
            assert metrics_b["service"]["executions"] == 4
            assert metrics_b["service"]["misses"] == 4
        finally:
            _stop(proc_a)
            _stop(proc_b)

    def test_kill_behind_a_kept_connection_reads_as_refused(self, tmp_path, h):
        """A SIGKILL while the client holds an idle kept connection to
        the daemon: the next call finds the connection closed, replaces
        it through a connect that is refused, and fails over — never a
        mid-flight error, since the request never left."""
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        proc_a = _spawn(path_a)
        proc_b = _spawn(path_b)
        endpoints = [f"unix:{path_a}", f"unix:{path_b}"]
        single = ServiceClient(socket_path=path_a, timeout=60.0, max_retries=0)
        failover = ServiceClient(endpoints=endpoints, timeout=60.0, max_retries=1)
        try:
            failover.wait_ready(timeout=15.0)
            for client in (single, failover):
                client.partition(h, engine="fm", settings={"seed": 0})
                # One connection served both calls: it is kept.
                opened = client.metrics()["obs"]["counters"]["server.connections"]
                client.healthz()
                assert client.metrics()["obs"]["counters"]["server.connections"] == opened

            proc_a.kill()
            proc_a.wait(timeout=15)

            with pytest.raises(ServiceConnectionError) as excinfo:
                single.partition(h, engine="fm", settings={"seed": 1})
            assert excinfo.value.refused
            response = failover.partition(h, engine="fm", settings={"seed": 1})
            assert response["served"]["cache"] == "miss"
            assert failover.failovers == 1
            assert failover.active_endpoint == f"unix:{path_b}"
            service_b = failover.metrics()["service"]
            assert service_b["executions"] == 1
        finally:
            single.close()
            failover.close()
            _stop(proc_a)
            _stop(proc_b)

    def test_execution_failures_never_move_to_a_sibling(self, h):
        """A 500-family failure may have executed (and here, did): the
        client must raise it, not replay the request on endpoint two —
        re-running crashing work is what the daemon-side breaker exists
        to punish."""
        svc1 = PartitionService(
            ServiceConfig(port=0, workers=1, max_retries=0)
        ).start()
        svc2 = PartitionService(
            ServiceConfig(port=0, workers=1, max_retries=0)
        ).start()
        try:
            with ServiceClient(
                endpoints=[svc1.url, svc2.url], timeout=60.0, max_retries=3
            ) as client:
                client.wait_ready(timeout=10.0)
                faults.configure("server.request=kill:1", seed=19)
                with pytest.raises(ServiceResponseError) as excinfo:
                    client.partition(h, engine="fm", settings={"seed": 0})
                assert excinfo.value.error_type == "WorkerCrashed"
                assert client.failovers == 0
                assert client.active_endpoint == svc1.url
            faults.configure(None)
            # The sibling never saw a data-plane request.
            assert svc2.metrics()["service"]["requests"] == 0
        finally:
            faults.configure(None)
            svc1.stop()
            svc2.stop()


@_NEEDS_AF_UNIX
class TestAutorestartWatchdog:
    def test_sigkilled_daemon_is_restarted_with_state(self, tmp_path, h):
        socket_path = str(tmp_path / "svc.sock")
        watchdog = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--autorestart",
                "--socket",
                socket_path,
                "--state-dir",
                str(tmp_path / "state"),
                "--workers",
                "1",
                "--max-retries",
                "0",
            ],
            env=dict(os.environ, PYTHONPATH="src"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = watchdog.stdout.readline().strip()
            assert banner == f"serving on unix:{socket_path}", banner
            with _client(socket_path) as client:
                health = client.healthz()
                baseline = client.partition(h, engine="fm", settings={"seed": 0})
            first_pid = health["pid"]
            assert first_pid != watchdog.pid  # supervised child, not the watchdog
            assert health["started_at"] is not None
            assert baseline["served"]["cache"] == "miss"

            os.kill(first_pid, signal.SIGKILL)

            deadline = time.monotonic() + 30.0
            second_health = None
            while time.monotonic() < deadline:
                try:
                    with ServiceClient(
                        socket_path=socket_path, timeout=5.0, max_retries=0
                    ) as probe:
                        second_health = probe.healthz()
                    if second_health["pid"] != first_pid:
                        break
                except Exception:
                    pass
                time.sleep(0.1)
            assert second_health is not None and second_health["pid"] != first_pid

            # The restarted daemon rehydrated the state the first one
            # persisted: the pre-kill result is a warm, identical hit.
            with _client(socket_path) as client:
                warm = client.partition(h, engine="fm", settings={"seed": 0})
            assert warm["served"]["cache"] == "hit"
            assert _canonical(warm["result"]) == _canonical(baseline["result"])
        finally:
            watchdog.send_signal(signal.SIGTERM)
            try:
                code = watchdog.wait(timeout=20)
            except subprocess.TimeoutExpired:
                watchdog.kill()
                code = watchdog.wait(timeout=15)
            _close_pipes(watchdog)
            assert code == 0

    def test_crash_loop_makes_the_watchdog_give_up(self, tmp_path):
        # A daemon that cannot bind its socket dies instantly, every
        # time; after --restart-limit fast crashes the watchdog must
        # exit 1 instead of flapping forever.
        missing_dir_socket = str(tmp_path / "no-such-dir" / "sub" / "svc.sock")
        watchdog = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--autorestart",
                "--restart-limit",
                "2",
                "--socket",
                missing_dir_socket,
                "--workers",
                "1",
            ],
            env=dict(os.environ, PYTHONPATH="src"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            code = watchdog.wait(timeout=60)
        except subprocess.TimeoutExpired:
            _kill(watchdog)
            pytest.fail("watchdog kept restarting a crash-looping daemon")
        stderr = watchdog.stderr.read()
        _close_pipes(watchdog)
        assert code == 1
        assert "giving up" in stderr


@_NEEDS_AF_UNIX
class TestOperatorSurfaces:
    def test_soak_json_summary_and_budget_gate(self, tmp_path, h, capsys):
        socket_path = str(tmp_path / "svc.sock")
        svc = PartitionService(
            ServiceConfig(socket_path=socket_path, workers=2)
        ).start()
        try:
            base_args = [
                "soak",
                "--socket", socket_path,
                "--duration", "1.0",
                "--clients", "2",
                "--distinct", "2",
                "--vertices", "8",
                "--starts", "1",
                "--json",
            ]
            code = cli_main(base_args)
            summary = json.loads(capsys.readouterr().out)
            assert code == 0
            assert summary["soak"] == 1
            assert summary["ok"] is True
            assert summary["violations"] == []
            assert summary["report"]["total_requests"] > 0
            assert set(summary["budgets"]) == {
                "healthz_seconds",
                "latency_p95_seconds",
                "shed_fraction",
                "rss_mb",
            }

            # An impossible latency budget flips the verdict and the
            # exit code — the CI-gate contract.
            code = cli_main(base_args + ["--latency-budget", "0.000001"])
            summary = json.loads(capsys.readouterr().out)
            assert code == 1
            assert summary["ok"] is False
            assert any("p95" in v for v in summary["violations"])
        finally:
            svc.stop()

    def test_bench_verify_passthrough_counts(self):
        from repro.bench import QUICK_SUITE, run_bench

        svc = PartitionService(
            ServiceConfig(port=0, workers=2)
        ).start()
        try:
            payload = run_bench(
                "verify-run",
                cases=QUICK_SUITE[:1],
                engines=("fm",),
                repeats=1,
                starts=3,
                server=svc.url,
                verify=True,
            )
            assert payload["settings"]["verify"] is True
            assert payload["verification"] == {"verified": 1, "failed": 0}
            assert all(e.get("verified") for e in payload["results"])
        finally:
            svc.stop()
