"""The service workload: request bytes in, response bytes out.

A ``repro-partition serve`` daemon runs in its own process (AF_UNIX,
two workers, a fresh ``--state-dir``).  Two client threads drive it
closed-loop: each sends its next request only after the previous reply.
A pass is a fixed script of pre-encoded ``algorithm1`` requests over a
pool of random and std-cell hypergraphs: one miss per pool graph, with a
settings seed no earlier pass used, plus hits that repeat keys the
previous pass served.  Every reply is verified after the timed passes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.digest import hypergraph_digest
from repro.io.json_io import hypergraph_to_payload
from repro.metrics import verify
from repro.server import ServiceClient

from perfbench import calibrate, layers, stats, tracer
from perfbench.library import (
    KINDS,
    MIN_SETUP_S,
    MIN_SETUPS,
    InstanceSpec,
    build_instance,
    derived_seed,
    normalized,
)

ROOT = Path(__file__).resolve().parents[1]

CLIENTS = 2
WORKERS = 2
#: cut_total and heavy_side_frac cover the misses of this many passes
#: (the first measured ones), so they repeat exactly for a seed.
QUALITY_PASSES = 8
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServiceWorkload:
    pool: tuple[InstanceSpec, ...]
    starts: int
    hits_per_pass: int


def _pool(sizes) -> tuple[InstanceSpec, ...]:
    return tuple(
        InstanceSpec(f"{kind}{modules}", kind, modules, modules * 8 // 5)
        for modules in sizes
        for kind in KINDS
    )


# 150-2000 modules: both sides of CSR_MIN_EDGES and VECTORIZE_MIN_PINS,
# so the list[set] walks and their array twins both serve requests.
# 8 hits to 12 misses puts 40% of requests on the cache.
SVC_MIX = ServiceWorkload(pool=_pool((150, 300, 600, 1000, 1500, 2000)), starts=4,
                          hits_per_pass=8)


class Pool:
    """The pool's hypergraphs and a request encoder for each."""

    def __init__(self, workload: ServiceWorkload, seed: int) -> None:
        self.graphs = []
        self._prefixes = []
        for spec in workload.pool:
            h = build_instance(spec, seed)
            payload = json.dumps(hypergraph_to_payload(h), separators=(",", ":"))
            self.graphs.append(h)
            self._prefixes.append(
                '{"op":"partition","engine":"algorithm1","hypergraph":' + payload
                + ',"settings":{"starts":%d,"seed":' % workload.starts
            )

    def body(self, index: int, settings_seed: int) -> bytes:
        return (self._prefixes[index] + f"{settings_seed}}}}}").encode()


class Daemon:
    """One daemon process with a private socket and state directory."""

    def __init__(self, run_dir: Path, name: str, trace: bool) -> None:
        self.dir = run_dir / name
        self.dir.mkdir(parents=True)
        # Relative to the checkout root, which is every process's cwd,
        # keeping the socket path under the AF_UNIX length limit.
        self.socket = os.path.relpath(self.dir / "d.sock", ROOT)
        self._log = open(self.dir / "daemon.log", "wb")
        argv = [sys.executable, str(ROOT / "perfbench" / "launcher.py")]
        argv += ["--trace"] if trace else []
        argv += ["--", "--socket", self.socket, "--workers", str(WORKERS),
                 "--state-dir", str(self.dir / "state")]
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket, timeout=120.0, max_retries=0)

    def wait_ready(self) -> None:
        self.client().wait_ready(timeout=READY_TIMEOUT_S)

    def metrics(self) -> dict:
        return self.client().metrics()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("daemon status has no VmHWM line")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Traffic:
    """Runs passes against one daemon and keeps every reply for checking."""

    def __init__(self, workload: ServiceWorkload, pool: Pool, daemon: Daemon, seed: int,
                 gauge: calibrate.SpeedGauge):
        self.workload = workload
        self.gauge = gauge
        self.pool = pool
        self.daemon = daemon
        self.seed = seed
        self.previous: list[tuple[int, bytes]] = []
        self.passes: list[dict] = []
        # (graph, body, status, raw reply, hit, measured pass or None)
        self.replies: list[tuple[int, bytes, int, bytes, bool, int | None]] = []
        self.pass_index = 0

    def _script(self) -> list[tuple[int, bytes, bool]]:
        index = self.pass_index
        self.pass_index += 1
        rng = random.Random(derived_seed(self.seed, f"pass{index}"))
        misses = [
            (i, self.pool.body(i, derived_seed(self.seed, f"settings{index}:{i}")))
            for i in range(len(self.pool.graphs))
        ]
        hits = rng.sample(self.previous, min(self.workload.hits_per_pass, len(self.previous)))
        self.previous = misses
        script = [(i, body, False) for i, body in misses] + [(i, b, True) for i, b in hits]
        rng.shuffle(script)
        return script

    def run_pass(self, record: bool = True) -> dict:
        """One pass; ``gauge`` takes a speed sample before it."""
        self.gauge.sample()
        script = self._script()
        latencies = [0.0] * len(script)
        replies: list = [None] * len(script)
        cpu = [0.0] * CLIENTS
        cursor = iter(range(len(script)))
        lock = threading.Lock()

        def client_loop(slot: int) -> None:
            client = self.daemon.client()
            c0 = time.thread_time()
            while True:
                with lock:
                    k = next(cursor, None)
                if k is None:
                    break
                t0 = time.perf_counter()
                try:
                    status, raw = client.request_raw("POST", "/partition", script[k][1])
                except Exception as exc:  # counted as a failed request
                    status, raw = -1, repr(exc).encode()
                latencies[k] = time.perf_counter() - t0
                replies[k] = (status, raw)
            cpu[slot] = time.thread_time() - c0

        threads = [threading.Thread(target=client_loop, args=(s,)) for s in range(CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        summary = {
            "wall": time.perf_counter() - t0,
            "latencies": latencies,
            "hit": [hit for _, _, hit in script],
            "client_cpu": sum(cpu),
        }
        number = len(self.passes) if record else None
        for (i, body, hit), (status, raw) in zip(script, replies):
            self.replies.append((i, body, status, raw, hit, number))
        if record:
            self.passes.append(summary)
        return summary

    def run_for(self, seconds: float, min_passes: int = 1) -> None:
        spent = 0.0
        while len(self.passes) < min_passes or spent < seconds:
            spent += self.run_pass()["wall"]


def check_replies(pool: Pool, replies, failures: list[str]) -> list[dict]:
    """Verify every reply; returns the decoded results (None if failed) in order."""
    digests = [hypergraph_digest(h) for h in pool.graphs]
    served: dict[bytes, dict] = {}
    results = []
    for i, body, status, raw, _, _ in replies:
        results.append(None)
        if status != 200:
            failures.append(f"graph {i}: HTTP {status}: {raw[:200]!r}")
            continue
        try:
            result = json.loads(raw)["result"]
            verify.verify_partition_body(pool.graphs[i], result, digest=digests[i])
            settings = json.loads(body)["settings"]
            if {k: result["settings"][k] for k in settings} != settings:
                raise verify.IntegrityError("reply answers different settings")
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"graph {i}: {type(exc).__name__}: {exc}")
            continue
        first = served.setdefault(body, result)
        if first != result:
            failures.append(f"graph {i}: a repeated request got a different result")
        results[-1] = result
    return results


class Run:
    """One benchmark run's daemons, in a scratch directory it removes."""

    def __init__(self, workload: ServiceWorkload, seed: int, report) -> None:
        self.workload = workload
        self.seed = seed
        self.report = report
        self.dir = ROOT / ".perfbench_run" / str(os.getpid())
        self.daemons: list[Daemon] = []
        self.failures: list[str] = []
        self.attempted = 0

    def __enter__(self) -> "Run":
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        for daemon in self.daemons:
            daemon.stop()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still holds a directory there

    def start(self, trace: bool) -> Daemon:
        daemon = Daemon(self.dir, f"d{len(self.daemons)}", trace)
        self.daemons.append(daemon)
        daemon.wait_ready()
        return daemon

    def drive(self, pool: Pool, daemon: Daemon, seconds: float,
              gauge: calibrate.SpeedGauge, min_passes: int = 1) -> Traffic:
        traffic = Traffic(self.workload, pool, daemon, self.seed, gauge)
        traffic.run_pass(record=False)  # warm-up: serves the first pass's hits
        traffic.run_for(seconds, min_passes)
        return traffic

    def check(self, pool: Pool, traffic: Traffic) -> list[dict]:
        self.attempted += len(traffic.replies)
        return check_replies(pool, traffic.replies, self.failures)


def _latencies(traffic: Traffic, hit: bool | None = None) -> list[float]:
    return [
        latency
        for p in traffic.passes
        for latency, is_hit in zip(p["latencies"], p["hit"])
        if hit is None or is_hit == hit
    ]


def end_to_end(workload: ServiceWorkload, seed: int, seconds: float, run: Run) -> dict:
    gauge = calibrate.SpeedGauge()
    setups = []  # pool generation + daemon start to ready
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        if run.daemons:
            run.daemons[-1].stop()
        gauge.sample()
        t0 = time.perf_counter()
        pool = Pool(workload, seed)
        daemon = run.start(trace=False)
        setups.append(time.perf_counter() - t0)
    traffic = run.drive(pool, daemon, seconds, gauge, QUALITY_PASSES)
    peak_rss_mb = daemon.peak_rss_mb()
    results = run.check(pool, traffic)
    quality = [
        result
        for result, (_, _, _, _, hit, number) in zip(results, traffic.replies)
        if result is not None and not hit and number is not None and number < QUALITY_PASSES
    ]
    _report(traffic, run.report)
    times = {
        "setup_s": stats.median(setups),
        "partition_s": stats.median([p["wall"] for p in traffic.passes]),
        "op_geomean_ms": 1000 * stats.geomean(_latencies(traffic)),
    }
    return {
        **normalized(times, gauge, run.report),
        "peak_rss_mb": peak_rss_mb,
        "cut_total": sum(r["cutsize"] for r in quality),
        "heavy_side_frac": stats.mean((1 + r["imbalance_fraction"]) / 2 for r in quality),
    }


def _report(traffic: Traffic, report) -> None:
    hits, misses = _latencies(traffic, True), _latencies(traffic, False)
    walls = sum(p["wall"] for p in traffic.passes)
    report(
        f"svc {len(hits) + len(misses)} requests in {len(traffic.passes)} passes: "
        f"{(len(hits) + len(misses)) / walls:.2f} rps, "
        f"hit p50 {1000 * stats.median(hits):.2f} ms, "
        f"miss p50 {1000 * stats.median(misses):.2f} ms, "
        f"miss p95 {1000 * stats.quantile(misses, 0.95):.2f} ms"
    )


def _delta(before: dict, after: dict) -> tuple[dict, dict]:
    """Span totals and counters accrued between two obs snapshots."""
    spans = {
        name: total - tracer.span_totals(before).get(name, 0.0)
        for name, total in tracer.span_totals(after).items()
    }
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return spans, counters


def per_layer(workload: ServiceWorkload, seed: int, seconds: float, run: Run) -> dict:
    with tracer.Tracer().wrap_all(tracer.GENERATOR_TARGETS), obs.enabled(clear=True) as reg:
        pool = Pool(workload, seed)
        build_s = tracer.span_totals(reg.snapshot()).get("generators.build", 0.0)
    gauge = calibrate.SpeedGauge()
    plain = run.drive(pool, run.start(trace=False), seconds / 2, gauge)
    run.check(pool, plain)
    run.daemons[-1].stop()

    daemon = run.start(trace=True)
    traffic = Traffic(workload, pool, daemon, seed, gauge)
    traffic.run_pass(record=False)
    before = daemon.metrics()
    traffic.run_for(seconds / 2)
    after = daemon.metrics()
    run.check(pool, traffic)
    _report(traffic, run.report)

    spans, counters = _delta(before["obs"], after["obs"])
    wait_s = sum(_latencies(traffic))
    out = layers.derive(spans, counters, len(traffic.passes), wait_s)
    shares = {
        "server.parse_frac": spans.get("server.parse", 0.0) - spans.get("server.digest", 0.0),
        "server.digest_frac": spans.get("server.digest", 0.0),
        "server.guards_frac": spans.get("server.guards", 0.0),
        "server.broker.wait_frac": spans.get("server.submit", 0.0) - spans.get("server.batch", 0.0),
        "runtime.supervisor.fork_ipc_frac": spans.get("runtime.fork_ipc", 0.0),
        "server.engine_frac": spans.get("server.engine", 0.0),
        "metrics.verify_frac": spans.get("metrics.verify", 0.0),
        "server.persist.append_frac": spans.get("server.persist.append", 0.0),
        "server.transport_frac": wait_s - spans.get("server.handle", 0.0),
    }
    for name, seconds_waited in shares.items():
        out[name] = seconds_waited / wait_s
    out["server.unattributed_frac"] = 1 - sum(out[name] for name in shares)
    tallies = {
        key: after["service"][key] - before["service"][key] for key in ("hits", "misses")
    }
    out["server.cache.hit_ratio"] = tallies["hits"] / (tallies["hits"] + tallies["misses"])
    out["server.broker.batch_size"] = (
        counters.get("server.batch.requests", 0) / counters["server.batches"]
    )
    out["client.gen_self_frac"] = sum(p["client_cpu"] for p in traffic.passes) / wait_s
    out["generators.build_s"] = build_s
    out["trace.overhead_frac"] = (
        stats.median([p["wall"] for p in traffic.passes])
        / stats.median([p["wall"] for p in plain.passes]) - 1
    )
    return out
