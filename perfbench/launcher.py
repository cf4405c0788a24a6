"""Start the partition daemon, optionally with the service layers traced.

    python3 perfbench/launcher.py [--trace] -- <repro-partition serve args>

With ``--trace`` the wrappers go in before the daemon is built, so its
forked workers inherit them.  Each wrapper adds to a ``trace.*`` span the
time the *requests* waited in that layer: a batch's shared work counts
once for every request in the batch.  The daemon publishes the spans in
``/metrics``, merged with those its workers recorded.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from repro.cli import main as cli_main  # noqa: E402

from perfbench import tracer  # noqa: E402

_batch = threading.local()


def _batch_size(*_args, **_kwargs) -> int:
    return getattr(_batch, "size", 1)


def _execute_batch(original):
    def execute_batch(self, tasks):
        _batch.size = len(tasks)
        t0 = time.perf_counter()
        try:
            return original(self, tasks)
        finally:
            tracer.record("server.batch", (time.perf_counter() - t0) * len(tasks))
            _batch.size = 1

    return execute_batch


def _pool_map(original):
    # Each request waits the whole map; the part not spent in its own
    # worker-side execution span is fork, IPC and its batch siblings.
    def pool_map(self, tasks):
        t0 = time.perf_counter()
        results, report = original(self, tasks)
        elapsed = time.perf_counter() - t0
        for result in results:
            spans = ((result.value or {}).get("obs") or {}).get("spans", {})
            engine = spans.get("server.execute.partition", {}).get("total", 0.0)
            tracer.record("server.engine", engine)
            tracer.record("runtime.fork_ipc", elapsed - engine)
        return results, report

    return pool_map


def install_service_tracer() -> tracer.Tracer:
    from repro.runtime import supervisor
    from repro.server import admission, app, batching, persist, protocol

    t = tracer.Tracer().wrap_all(tracer.CORE_TARGETS)
    t.wrap(app, "parse_request", "server.parse")
    t.wrap(protocol, "hypergraph_digest", "server.digest")
    t.wrap(admission.QuarantineBreaker, "check", "server.guards")
    t.wrap(admission.AdmissionController, "admit", "server.guards")
    t.wrap(batching.RequestBroker, "submit", "server.submit")
    t.wrap(app.PartitionService, "handle_request", "server.handle")
    t.replace(app.PartitionService, "_execute_batch", _execute_batch)
    t.replace(supervisor.SupervisedPool, "map", _pool_map)
    t.wrap(app, "verify_partition_body", "metrics.verify", weight=_batch_size)
    t.wrap(persist.StateStore, "record_cache", "server.persist.append", weight=_batch_size)
    return t


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["--trace"]:
        install_service_tracer()
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.exit(cli_main(["serve", *argv]))
