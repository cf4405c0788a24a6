"""Closed-loop load generator + soak harness for the partition daemon.

Drives a *running* daemon the way a misbehaving fleet would: ``clients``
closed-loop threads (each fires its next request the moment the last
one answers), cycling through ``distinct`` randomly generated
hypergraphs so the content-addressed cache sees a mix of cold and hot
keys.  While the load runs, a prober thread hits ``/healthz`` on a
fixed cadence and records its latency — the overload contract is that
the *control plane stays responsive while the data plane sheds*.

Outcomes are bucketed by the daemon's typed error taxonomy (``ok``,
``shed_overloaded``, ``shed_draining``, ``shed_quarantined``,
``error``, ``transport_error``) — clients run with retries **disabled**
so every shed is observed, not papered over.  Optionally the daemon's
RSS is sampled (``server_pid``) so a soak can assert bounded memory.

Used three ways:

* ``repro-partition soak`` — standalone CLI against any daemon;
* ``tests/test_server_overload.py`` — the soak/chaos suite;
* ad hoc, via :func:`run_load` from a REPL.

Nothing here imports the service side beyond the client; the harness is
honestly black-box.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.generators.random_hypergraph import random_hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.runtime import memory
from repro.server.client import (
    ServiceClient,
    ServiceClientError,
    ServiceResponseError,
)

__all__ = ["LoadReport", "run_load"]

#: ``error.type`` -> report bucket.  Anything else lands in ``error``.
_SHED_BUCKETS = {
    "Overloaded": "shed_overloaded",
    "Draining": "shed_draining",
    "Quarantined": "shed_quarantined",
}


@dataclass
class LoadReport:
    """What the load run observed (JSON-ready via :meth:`to_dict`)."""

    duration_seconds: float = 0.0
    clients: int = 0
    outcomes: dict = field(default_factory=dict)
    request_latency: dict = field(default_factory=dict)
    healthz_latency: dict = field(default_factory=dict)
    healthz_failures: int = 0
    rss_peak_bytes: int | None = None
    metrics_before: dict | None = None
    metrics_after: dict | None = None

    @property
    def total_requests(self) -> int:
        return sum(self.outcomes.values())

    @property
    def shed_total(self) -> int:
        return sum(
            self.outcomes.get(bucket, 0) for bucket in _SHED_BUCKETS.values()
        )

    def to_dict(self) -> dict:
        return {
            "duration_seconds": round(self.duration_seconds, 3),
            "clients": self.clients,
            "total_requests": self.total_requests,
            "outcomes": dict(self.outcomes),
            "shed_total": self.shed_total,
            "request_latency": self.request_latency,
            "healthz_latency": self.healthz_latency,
            "healthz_failures": self.healthz_failures,
            "rss_peak_bytes": self.rss_peak_bytes,
        }


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
        return round(ordered[index], 6)

    return {
        "count": len(ordered),
        "p50": at(0.50),
        "p95": at(0.95),
        "max": round(ordered[-1], 6),
    }


def _make_bodies(distinct: int, vertices: int, seed: int, starts: int) -> list[dict]:
    """``distinct`` request bodies over small random hypergraphs.

    Each body is deterministic in ``seed`` so a soak is reproducible;
    ``starts`` is the knob that makes one request cheap or expensive.
    """
    bodies = []
    for i in range(max(1, distinct)):
        h = random_hypergraph(
            num_vertices=max(4, vertices),
            num_edges=max(6, vertices * 2),
            seed=seed + i,
            connect=True,
        )
        bodies.append(
            {
                "op": "partition",
                "engine": "fm",
                "hypergraph": hypergraph_to_payload(h),
                "settings": {"starts": starts, "seed": seed + i},
            }
        )
    return bodies


def run_load(
    url: str | None = None,
    socket_path: str | None = None,
    duration: float = 5.0,
    clients: int = 8,
    distinct: int = 4,
    vertices: int = 16,
    starts: int = 5,
    seed: int = 0,
    request_timeout: float = 60.0,
    healthz_interval: float = 0.1,
    healthz_budget: float = 1.0,
    shed_pause: float = 0.05,
    server_pid: int | None = None,
    stop_event: threading.Event | None = None,
    endpoints: list[str] | None = None,
    max_retries: int = 0,
) -> LoadReport:
    """Hammer a daemon for ``duration`` seconds; return a :class:`LoadReport`.

    ``healthz_budget`` is the responsiveness contract: any ``/healthz``
    round trip slower than it (or failing outright while load clients
    still get answers) is counted under ``healthz_failures``.
    ``stop_event`` lets a caller (e.g. a drain test) end the run early.

    ``endpoints`` switches the clients to the failover set form (the
    recovery suites kill one daemon mid-run and assert the workload
    completes against its sibling); pair it with ``max_retries > 0`` —
    with retries disabled a failover client observes the shed exactly
    like a single-endpoint one.
    """
    bodies = _make_bodies(distinct, vertices, seed, starts)

    def make_client(timeout: float, retries: int = max_retries) -> ServiceClient:
        if endpoints is not None:
            return ServiceClient(
                endpoints=endpoints, timeout=timeout, max_retries=retries
            )
        return ServiceClient(
            url=url, socket_path=socket_path, timeout=timeout, max_retries=retries
        )
    stop = stop_event or threading.Event()
    deadline = time.monotonic() + duration
    lock = threading.Lock()
    outcomes: dict[str, int] = {}
    request_latencies: list[float] = []
    healthz_latencies: list[float] = []
    healthz_failures = 0
    rss_peak: int | None = None

    def bucket(name: str) -> None:
        with lock:
            outcomes[name] = outcomes.get(name, 0) + 1

    def client_loop(index: int) -> None:
        # Default max_retries=0: observe sheds, do not paper over them.
        with make_client(request_timeout) as client:
            i = index
            while not stop.is_set() and time.monotonic() < deadline:
                body = bodies[i % len(bodies)]
                i += 1
                t0 = time.monotonic()
                paused = 0.0
                try:
                    client.request("POST", "/partition", body)
                except ServiceResponseError as exc:
                    bucket(_SHED_BUCKETS.get(exc.error_type, "error"))
                    # A shed answers in O(1); re-firing instantly would
                    # turn the run into a pure shed loop on the kept
                    # connection.  Pause a beat — far less than the
                    # daemon's Retry-After hint, so the overload
                    # pressure stays sustained.
                    paused = shed_pause
                except ServiceClientError:
                    bucket("transport_error")
                    paused = shed_pause
                else:
                    bucket("ok")
                with lock:
                    request_latencies.append(time.monotonic() - t0)
                if paused:
                    stop.wait(paused)

    def prober_loop() -> None:
        nonlocal healthz_failures, rss_peak
        with make_client(max(healthz_budget * 2, 2.0), retries=0) as client:
            while not stop.is_set() and time.monotonic() < deadline:
                t0 = time.monotonic()
                try:
                    client.request("GET", "/healthz", max_retries=0)
                except ServiceClientError:
                    with lock:
                        healthz_failures += 1
                else:
                    elapsed = time.monotonic() - t0
                    with lock:
                        healthz_latencies.append(elapsed)
                        if elapsed > healthz_budget:
                            healthz_failures += 1
                if server_pid is not None:
                    rss = memory.rss_bytes(server_pid)
                    if rss is not None:
                        with lock:
                            rss_peak = rss if rss_peak is None else max(rss_peak, rss)
                stop.wait(healthz_interval)

    report = LoadReport(clients=clients)
    with make_client(10.0, retries=0) as probe_client:
        try:
            report.metrics_before = probe_client.metrics()
        except ServiceClientError:
            report.metrics_before = None

        t_start = time.monotonic()
        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(clients)
        ]
        threads.append(threading.Thread(target=prober_loop, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=duration + request_timeout + 10.0)
        report.duration_seconds = time.monotonic() - t_start

        try:
            report.metrics_after = probe_client.metrics()
        except ServiceClientError:
            report.metrics_after = None
    with lock:
        report.outcomes = dict(outcomes)
        report.request_latency = _percentiles(request_latencies)
        report.healthz_latency = _percentiles(healthz_latencies)
        report.healthz_failures = healthz_failures
        report.rss_peak_bytes = rss_peak
    return report
