"""The partition daemon: HTTP front end, supervised execution, caching.

Request lifecycle
-----------------

1. A handler thread reads the body.  A body byte-identical to one whose
   result is still cached (same endpoint) is answered from the cache's
   alias table at once: no decode, no ``Hypergraph``, no digest.
   Any other body is parsed
   (:func:`repro.server.protocol.parse_request`), decoded once member
   by member; malformed requests stop here with a structured 400.  A
   ``"hypergraph"`` member whose text the cache's hypergraph table
   knows is unpickled with its digest, not built and digested again.
2. The content-addressed cache is probed (``digest:fingerprint``); a
   hit splices the stored canonical bytes into the response — the
   result section is byte-identical to the cold run that produced it —
   and aliases the body to the entry.
3. A miss goes through the :class:`~repro.server.batching.RequestBroker`
   which coalesces identical in-flight requests and runs distinct ones
   on a shared :class:`~repro.runtime.SupervisedPool`, one dispatcher
   thread per pool worker, so up to ``workers`` misses execute at once.
4. The pool sends the request over a pipe to one of its reused forked
   workers, which runs :func:`_service_worker` under the configured
   per-task timeout and memory budget; the daemon forks a worker once
   per slot, and again only to replace one that failed.  The request's
   hypergraph crosses as the hypergraph table's pickle, never pickled
   again, and a worker that has seen that member text before runs on
   the frozen hypergraph it kept for it
   (:mod:`repro.server.worker_table`), Algorithm I's dual included.
   Crashes, hangs and budget overruns surface as **typed error
   responses** (500) while the daemon itself stays up — the pool is
   built with ``sequential_fallback=False`` precisely so failing work
   is never pulled into the serving process.
5. Fault-free, non-degraded results are cached, and the body aliased
   to them; degraded (deadline-cut) results are served but *not*
   cached, since they depend on wall-clock luck rather than request
   content.

Overload posture (see ``docs/SERVICE.md`` § Overload & lifecycle): in
front of step 3 sit three guards.  A **draining** daemon rejects new
work with a typed 503; the :class:`~repro.server.admission.QuarantineBreaker`
short-circuits request keys that keep killing workers with a typed 503
and a cooldown; the :class:`~repro.server.admission.AdmissionController`
bounds concurrently admitted requests and sheds the excess with a typed
429 + ``Retry-After`` (the broker's bounded dispatch queue backs it
up).  The cache is probed *before* any guard, so hits bypass all three
— they cost no pool capacity, and answering them cannot delay a drain
(the drain barrier waits only on admitted requests).
``SIGTERM``/:meth:`PartitionService.stop` runs the graceful drain:
``/healthz`` flips to ``"draining"`` and every response carries
``Connection: close``, in-flight requests finish up to
``drain_timeout`` seconds, stragglers are cut via ``pool.abort()``, and
only then are the listener torn down, the kept connections ended and
the pool's workers closed.

Transport: HTTP/1.1 over TCP or ``AF_UNIX``, one handler thread per
connection, connections kept open between requests (an idle one closes
after :attr:`_Handler.timeout` seconds).  Each response leaves in one
write, and one sent before its request body was read closes the
connection.

Thread/fork safety: each task enters ``obs.scoped()`` first thing, so
the worker records into a fresh registry (and, crucially, a fresh
lock — a handler thread holding the daemon registry's lock when the
worker was forked must not deadlock it), and each task's snapshot
holds that task's work alone.  A worker keeps no descriptor of the
daemon's but its own pipe: the listening socket is released the moment
the worker starts, so a killed daemon's socket path is free for its
successor.
"""

from __future__ import annotations

import functools
import json
import math
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro import __version__
from repro.core.hypergraph import Hypergraph
from repro.engines import run_engine, run_placer
from repro.io.json_io import _encode_label
from repro.metrics import (
    IntegrityError,
    verify_partition_body,
    verify_place_body,
)
from repro.runtime import Deadline, SupervisedPool, faults
from repro.server.admission import AdmissionController, QuarantineBreaker
from repro.server.batching import RequestBroker
from repro.server.cache import ResultCache, body_alias
from repro.server.persist import CORRUPTION_SITE, StateStore
from repro.server.protocol import (
    MAX_REQUEST_BYTES,
    Draining,
    RequestError,
    ServiceRequest,
    ServiceUnavailable,
    canonical_bytes,
    error_payload,
    parse_request,
)
from repro.server.worker_table import WorkerTable

__all__ = ["PartitionService", "ServiceConfig", "ServiceError"]


class ServiceError(RuntimeError):
    """Raised on daemon misconfiguration (bad socket path, reuse, ...)."""


@dataclass
class ServiceConfig:
    """Deployment knobs for one daemon (see ``docs/SERVICE.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (the flake-free test default)
    socket_path: str | None = None  # set -> AF_UNIX instead of TCP
    workers: int = 2
    task_timeout: float | None = None
    max_retries: int = 1
    memory_limit_mb: float | None = None
    cache_max_bytes: int = 64 << 20
    cache_max_entries: int = 4096
    obs_enabled: bool = True
    # Overload & lifecycle knobs (docs/SERVICE.md § Overload & lifecycle)
    max_inflight: int = 64  # admitted concurrent requests; excess -> 429
    max_queue: int = 256  # broker dispatch-queue bound; excess -> 429
    drain_timeout: float = 5.0  # SIGTERM: seconds in-flight work may finish
    breaker_threshold: int = 3  # worker deaths per key before quarantine
    breaker_cooldown: float = 30.0  # seconds a quarantined key stays shed
    # Durability & integrity knobs (docs/SERVICE.md § State persistence)
    state_dir: str | None = None  # set -> spill cache + breaker state here
    verify_results: bool = True  # re-verify result bodies before serving


# ----------------------------------------------------------------------
# Worker side (runs in a forked pool worker)
# ----------------------------------------------------------------------


def _partition_body(
    request: ServiceRequest, hypergraph: Hypergraph, deadline: Deadline | None
) -> dict:
    settings = request.settings
    bipartition, extras = run_engine(
        request.engine,
        hypergraph,
        seed=settings["seed"],
        starts=settings["starts"],
        deadline=deadline,
        balance_tolerance=settings["balance_tolerance"],
        refine=settings["refine"],
    )
    return {
        "op": "partition",
        "engine": request.engine,
        "digest": request.digest,
        "fingerprint": request.fingerprint,
        "settings": settings,
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
        "left": sorted((_encode_label(v) for v in bipartition.left), key=repr),
        "right": sorted((_encode_label(v) for v in bipartition.right), key=repr),
        "degraded": bool(extras.get("degraded")),
        "degrade_reason": extras.get("degrade_reason"),
    }


def _place_body(
    request: ServiceRequest, hypergraph: Hypergraph, deadline: Deadline | None
) -> dict:
    settings = request.settings
    result = run_placer(
        request.engine,
        hypergraph,
        seed=settings["seed"],
        rows=settings["rows"],
        cols=settings["cols"],
        partitioner=settings["partitioner"],
        deadline=deadline,
    )
    positions = sorted(result.positions.items(), key=lambda item: repr(item[0]))
    return {
        "op": "place",
        "placer": request.engine,
        "digest": request.digest,
        "fingerprint": request.fingerprint,
        "settings": settings,
        "grid": {"rows": result.grid.rows, "cols": result.grid.cols},
        "positions": [
            [_encode_label(v), [row, col]] for v, (row, col) in positions
        ],
        "total_hpwl": result.total_hpwl,
        "cut_sizes": list(result.cut_sizes),
        "degraded": bool(result.degraded),
        "degrade_reason": result.degrade_reason,
    }


def _service_worker(payload: dict, *, table: WorkerTable) -> dict:
    """Execute one validated request inside a forked pool worker.

    The request arrives pickled over the worker's pipe, its hypergraph
    as the hypergraph table's bytes: ``table``, this worker's
    :class:`WorkerTable`, gives the frozen hypergraph it kept for that
    key or unpickles them, and keeps it once the request has succeeded.
    Run in-process (the pool's sequential mode), the request keeps its
    own hypergraph and the table is not used.  The JSON-ready dict it
    returns pickles cleanly back; its ``"table_hit"`` says whether the
    table had the hypergraph (``None`` in-process).
    """
    request: ServiceRequest = payload["request"]
    # Fresh registry *and* fresh lock before anything else — see the
    # module docstring's fork-safety note.
    with obs.scoped(activate=payload["obs"]) as registry:
        faults.inject("server.request")
        hypergraph, hit = request.hypergraph, None
        if hypergraph is None:
            key, blob = request.hypergraph_key, request.hypergraph_pickle
            hypergraph, hit = table.get(key, blob)
            obs.count(f"server.worker.hypergraph_{'hits' if hit else 'misses'}")
        deadline = Deadline.coerce(request.settings["deadline_seconds"])
        with obs.span(f"server.execute.{request.op}"):
            if request.op == "partition":
                body = _partition_body(request, hypergraph, deadline)
            else:
                body = _place_body(request, hypergraph, deadline)
        if hit is not None:
            table.keep(key, blob, hypergraph)
        snapshot = registry.snapshot() if payload["obs"] else None
    return {"body": body, "obs": snapshot, "table_hit": hit}


# ----------------------------------------------------------------------
# Outcomes crossing the broker boundary
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Success:
    body_bytes: bytes
    attempts: int
    degraded: bool


@dataclass(frozen=True)
class _Failure:
    error_type: str
    message: str
    attempts: int


#: Supervisor failure kind (``TaskResult.failure``, set where the pool
#: saw the failure) -> typed error name.  Never derived from message
#: text: a worker exception whose own message reads like a crash, a
#: hang or a drain stays an ``ExecutionFailed``.
_FAILURE_ERROR_TYPES = {
    "spawn": "WorkerSpawnFailed",
    "crash": "WorkerCrashed",
    "hang": "WorkerHung",
    "memory": "MemoryBudgetExceeded",
    "deadline": "DeadlineExpired",
    "aborted": "Draining",
    "error": "ExecutionFailed",
}


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default backlog (5) collapses under a client stampede:
    # connections are refused at the kernel before the daemon can answer
    # with a *typed* shed.  A deep backlog keeps the shed path — which
    # is O(1) per request — in charge of saying no.
    request_queue_size = 128
    service: "PartitionService" = None  # attached by PartitionService.start

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open = set()  # accepted sockets whose handler has not closed them
        self._open_changed = threading.Condition()

    def process_request(self, request, client_address):
        # TCP and AF_UNIX accepts both land here: requests per
        # connection show whether clients keep their connections.
        obs.count("server.connections")
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def end_connections(self, timeout: float) -> None:
        """End every accepted connection and wait up to ``timeout`` s.

        ``SHUT_RD`` wakes a handler waiting on a kept connection with
        EOF, so it closes the connection and exits; a response still
        being written is not cut.  Call it once the listener is closed.
        """
        with self._open_changed:
            still_open = list(self._open)
        for request in still_open:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile
        with self._open_changed:
            self._open_changed.wait_for(lambda: not self._open, timeout)


class _UnixServiceHTTPServer(_ServiceHTTPServer):
    """HTTP over an ``AF_UNIX`` stream socket (local-only deployments)."""

    address_family = socket.AF_UNIX

    def server_bind(self):
        # HTTPServer.server_bind assumes a (host, port) address; for a
        # path-addressed socket do the raw bind and fake the name fields
        # BaseHTTPRequestHandler wants for response headers.
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0

    def get_request(self):
        request, _ = self.socket.accept()
        return request, ("local", 0)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A kept connection idle this long releases its handler thread.
    timeout = 30

    _POST_OPS = {"/partition": "partition", "/place": "place", "/": None}

    @property
    def service(self) -> "PartitionService":
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's observability lives in /metrics, not stderr

    def _send(
        self,
        status: int,
        body: bytes,
        headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> None:
        """Write the whole response in one write.

        Headers and body in two writes stall a kept TCP connection:
        Nagle holds the body until the client's delayed ACK of the
        headers, about 40 ms.  ``TCP_NODELAY`` is no way out, since
        ``AF_UNIX`` sockets reject it.  ``close`` (or a draining daemon)
        adds ``Connection: close``, which also ends this handler's loop.
        """
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close or self.service._draining.is_set():
            self.send_header("Connection", "close")
        # end_headers(), with the body joined to the buffered headers.
        self._headers_buffer += [b"\r\n", body]
        self.flush_headers()

    def _send_error_payload(
        self, status: int, exc: Exception, close: bool = False, **kwargs
    ) -> None:
        self._send(status, canonical_bytes(error_payload(exc, **kwargs)), close=close)

    def do_GET(self):
        try:
            if self.path == "/healthz":
                self._send(200, canonical_bytes(self.service.health()))
            elif self.path == "/metrics":
                self._send(200, canonical_bytes(self.service.metrics()))
            else:
                self._send_error_payload(
                    404,
                    RequestError(
                        f"no such endpoint {self.path!r}; GET serves "
                        "/healthz and /metrics"
                    ),
                    error_type="NotFound",
                )
        except Exception as exc:  # never leak a traceback to the client
            self._send_error_payload(500, exc, close=True, error_type="InternalError")

    def do_POST(self):
        # Every answer sent before the body is read closes the
        # connection: the unread body would be parsed as the next request.
        try:
            if self.path not in self._POST_OPS:
                self._send_error_payload(
                    404,
                    RequestError(
                        f"no such endpoint {self.path!r}; POST serves "
                        "/partition, /place and /"
                    ),
                    close=True,
                    error_type="NotFound",
                )
                return
            length_header = self.headers.get("Content-Length")
            try:
                length = int(length_header)
            except (TypeError, ValueError):
                self._send_error_payload(
                    411,
                    RequestError("a Content-Length header is required"),
                    close=True,
                    error_type="LengthRequired",
                )
                return
            if length < 0 or length > MAX_REQUEST_BYTES:
                self._send_error_payload(
                    413,
                    RequestError(
                        f"Content-Length {length} is outside "
                        f"[0, {MAX_REQUEST_BYTES}]"
                    ),
                    close=True,
                    error_type="PayloadTooLarge",
                )
                return
            raw = self.rfile.read(length)
            status, body, headers = self.service.handle_request(
                raw, expected_op=self._POST_OPS[self.path]
            )
            self._send(status, body, headers)
        except Exception as exc:  # never leak a traceback to the client
            try:
                self._send_error_payload(
                    500, exc, close=True, error_type="InternalError"
                )
            except Exception:
                self.close_connection = True  # client already gone


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class PartitionService:
    """One partition daemon: pool + broker + cache + HTTP listener."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self._httpd: _ServiceHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._tally_lock = threading.Lock()
        self._tallies = {
            "requests": 0,
            "malformed": 0,
            "hits": 0,
            "misses": 0,
            "coalesced": 0,
            "executions": 0,
            "failures": 0,
            "degraded": 0,
            "shed_overloaded": 0,
            "shed_draining": 0,
            "shed_quarantined": 0,
            "verify_failures": 0,
            "worker_hypergraph_hits": 0,
            "worker_hypergraph_misses": 0,
        }
        cfg = self.config
        self._draining = threading.Event()
        self._drain_deadline: float | None = None
        self._drain_seconds: float | None = None
        self._stopped = False
        self._socket_bound = False
        self.cache = ResultCache(
            max_bytes=cfg.cache_max_bytes, max_entries=cfg.cache_max_entries
        )
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight, workers=cfg.workers
        )
        self.breaker = QuarantineBreaker(
            threshold=cfg.breaker_threshold, cooldown=cfg.breaker_cooldown
        )
        self.store: StateStore | None = None
        memory_limit_bytes = (
            int(cfg.memory_limit_mb * (1 << 20)) if cfg.memory_limit_mb is not None else None
        )
        # Each worker fills its own copy of this table; the daemon's stays empty.
        table = WorkerTable(cfg.cache_max_entries, cfg.cache_max_bytes, memory_limit_bytes)
        self.pool = SupervisedPool(
            functools.partial(_service_worker, table=table),
            max_workers=cfg.workers,
            task_timeout=cfg.task_timeout,
            max_retries=cfg.max_retries,
            memory_limit_bytes=memory_limit_bytes,
            # A crashing request must become a typed error response, not
            # an in-process rerun of the thing that just killed a worker.
            sequential_fallback=False,
        )
        self.broker = RequestBroker(
            self._execute_batch, workers=cfg.workers, max_queue=cfg.max_queue
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "PartitionService":
        if self._httpd is not None:
            return self
        cfg = self.config
        if cfg.obs_enabled and not obs.is_enabled():
            obs.enable()
        if cfg.state_dir is not None and self.store is None:
            self.store = StateStore.open(cfg.state_dir)
            # Warm the cache oldest-entry-first so LRU order survives the
            # restart too; these puts go straight to the in-memory cache —
            # the records backing them are already durable.
            for key, value in self.store.cache_entries:
                self.cache.put(key, value)
            # Quarantined keys come back open/cooling (downtime already
            # folded in), never silently forgotten.
            for key, failures, open_elapsed in self.store.breaker_entries:
                self.breaker.restore_key(key, failures, open_elapsed)
            rehydrated = self.store.stats()
            obs.count(
                "server.persist.rehydrated.cache", rehydrated["rehydrated_cache"]
            )
            obs.count(
                "server.persist.rehydrated.breaker",
                rehydrated["rehydrated_breaker"],
            )
        if cfg.socket_path is not None:
            if not hasattr(socket, "AF_UNIX"):
                raise ServiceError(
                    "AF_UNIX sockets are not available on this platform; "
                    "use host/port instead"
                )
            self._claim_socket_path(cfg.socket_path)
            httpd = _UnixServiceHTTPServer(cfg.socket_path, _Handler)
            self._socket_bound = True
        else:
            httpd = _ServiceHTTPServer((cfg.host, cfg.port), _Handler)
        httpd.service = self
        self._httpd = httpd
        self._started_at = time.time()
        self._draining.clear()
        self._stopped = False
        self.broker.start()
        self._serve_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, drain_timeout: float | None = None) -> None:
        """Drain gracefully, then tear the daemon down.

        Sequence (idempotent; the second call is a no-op):

        1. Flip into **draining**: ``/healthz`` reports ``"draining"``,
           new POSTs are shed with a typed 503 + ``Retry-After``.
        2. Wait up to ``drain_timeout`` (default: the config knob) for
           every admitted request to finish and write its response.
        3. Stragglers past the window are cut: ``pool.abort()``
           SIGTERMs their workers and their waiters get a typed
           ``Draining`` failure — nothing is left for client timeouts.
        4. The broker fails anything still queued (typed, promptly),
           the listener shuts down, every kept connection is ended
           (``SHUT_RD``, so a response still being written is not cut),
           the pool's idle workers exit, and the UNIX socket file — if
           this daemon bound one — is removed exactly once.
        """
        if self._stopped:
            return
        self._stopped = True
        cfg = self.config
        timeout = cfg.drain_timeout if drain_timeout is None else drain_timeout
        t0 = time.monotonic()
        self._drain_deadline = t0 + max(0.0, timeout)
        self._draining.set()
        drained = self.admission.drain_wait(timeout)
        if not drained:
            # In-flight work outlived the window: cut it.  Waiters see a
            # typed Draining failure; workers are SIGTERMed and reaped.
            self.pool.abort("service is draining")
            self.admission.drain_wait(5.0)
        self.broker.stop()
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            # Admitted requests have answered; a kept connection must
            # not let this daemon answer anything after stop() returns.
            httpd.end_connections(timeout=5.0)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30.0)
            self._serve_thread = None
        self.pool.close()
        if self.store is not None:
            self.store.close()
        self._drain_seconds = time.monotonic() - t0
        obs.gauge("server.drain.seconds", round(self._drain_seconds, 6))
        if not drained:
            obs.count("server.drain.aborted")
        if self._socket_bound:
            # Exactly once: a later stop() (or a path the next daemon
            # has since claimed) must never unlink someone else's file.
            self._socket_bound = False
            try:
                os.unlink(cfg.socket_path)
            except OSError:
                pass

    def __enter__(self) -> "PartitionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @staticmethod
    def _claim_socket_path(path: str) -> None:
        """Remove a stale socket file; refuse to steal a live one."""
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # nobody answering: stale leftover
        else:
            raise ServiceError(f"socket path {path!r} already has a live server")
        finally:
            probe.close()

    @property
    def address(self) -> tuple[str, int] | str:
        """Bound TCP ``(host, port)`` or the UNIX socket path."""
        if self._httpd is None:
            raise ServiceError("service is not started")
        if self.config.socket_path is not None:
            return self.config.socket_path
        host, port = self._httpd.server_address[:2]
        return (host, port)

    @property
    def url(self) -> str:
        address = self.address
        if isinstance(address, str):
            raise ServiceError("a UNIX-socket service has no http:// URL")
        return f"http://{address[0]}:{address[1]}"

    # -- request path --------------------------------------------------

    def _tally(self, name: str, amount: int = 1) -> None:
        with self._tally_lock:
            self._tallies[name] += amount

    def handle_request(
        self, raw: bytes, expected_op: str | None = None
    ) -> tuple[int, bytes, dict[str, str]]:
        """Full request pipeline; returns ``(status, body_bytes, headers)``."""
        t0 = time.perf_counter()
        self._tally("requests")
        obs.count("server.requests")
        # The cache is probed before any guard: hits cost no pool
        # capacity, so even a draining daemon keeps answering them —
        # doing so cannot delay its drain, since the drain barrier
        # waits only on admitted requests.  A repeat of a body whose
        # result is cached is answered before it is even parsed.
        alias = body_alias(raw, expected_op)
        cached = self.cache.get_alias(alias)
        if cached is not None:
            self._tally("hits")
            return 200, self._envelope(cached, "hit", t0, attempts=0), {}
        try:
            request = parse_request(raw, expected_op=expected_op, hypergraphs=self.cache)
        except RequestError as exc:
            self._tally("malformed")
            obs.count("server.requests.malformed")
            return 400, canonical_bytes(error_payload(exc)), {}

        cached = self.cache.get(request.cache_key)
        if cached is not None:
            self.cache.add_alias(alias, request.cache_key)
            self._tally("hits")
            return 200, self._envelope(cached, "hit", t0, attempts=0), {}

        # Guard 0 — draining: a stopping daemon takes no new work (the
        # cheap parse above still runs so malformed traffic stays 400).
        if self._draining.is_set():
            obs.count("server.shed.draining")
            return self._unavailable(
                Draining(
                    "daemon is draining; retry against another instance",
                    retry_after=self._drain_retry_after(),
                )
            )
        self._tally("misses")

        # Guard 1 — quarantine: a key that keeps killing workers is
        # short-circuited before it can burn another one.  A True
        # return means this request holds the key's single half-open
        # probe slot: every path below that fails to deliver an
        # execution outcome must give it back via probe_aborted(), or
        # the key would answer "probe already in flight" forever.
        try:
            probing = self.breaker.check(request.cache_key)
        except ServiceUnavailable as exc:
            return self._unavailable(exc)

        # Guard 2 — admission: bounded in-flight budget; excess is shed
        # with 429 + Retry-After instead of queuing unboundedly.
        try:
            self.admission.admit()
        except ServiceUnavailable as exc:
            if probing:
                self.breaker.probe_aborted(request.cache_key)
            return self._unavailable(exc)
        admitted_at = time.monotonic()
        executed = False
        try:
            outcome, coalesced = self.broker.submit(request.cache_key, request)
            executed = isinstance(outcome, (_Success, _Failure))
        except ServiceUnavailable as exc:
            # Broker-level shed: dispatch queue full, or stop() raced us.
            if probing:
                self.breaker.probe_aborted(request.cache_key)
            if exc.retry_after is None:
                exc.retry_after = self.admission.retry_after_hint()
            return self._unavailable(exc)
        finally:
            # The slot always comes back, but only a delivered execution
            # outcome feeds the service-time EWMA — an immediate shed's
            # ~0 s sample would drag the Retry-After hint toward its
            # floor exactly when backpressure matters most.
            self.admission.release(
                time.monotonic() - admitted_at if executed else None
            )
        if coalesced:
            self._tally("coalesced")
        if isinstance(outcome, _Success):
            if outcome.degraded:
                self._tally("degraded")
            else:
                # Only once the result is cached (it may have been
                # rejected as oversized, or evicted since).
                self.cache.add_alias(alias, request.cache_key)
            status = "coalesced" if coalesced else "miss"
            return 200, self._envelope(
                outcome.body_bytes, status, t0, attempts=outcome.attempts
            ), {}
        if isinstance(outcome, _Failure):
            if outcome.error_type == "Draining":
                # The drain cut this in-flight task; not executed to
                # completion anywhere, so a retry elsewhere is safe.
                return self._unavailable(
                    Draining(outcome.message, retry_after=1.0)
                )
            body = error_payload(
                RuntimeError(outcome.message), error_type=outcome.error_type
            )
            body["error"]["attempts"] = outcome.attempts
            return 500, canonical_bytes(body), {}
        if isinstance(outcome, ServiceUnavailable):
            # A parked waiter failed by broker.stop() gets the typed
            # draining outcome as an object, not a raise.  Nothing
            # executed, so a held probe slot comes back.
            if probing:
                self.breaker.probe_aborted(request.cache_key)
            return self._unavailable(outcome)
        # Broker-level exception (executor blew up, unexpected outcome):
        # no execution outcome was delivered, so the probe slot — if
        # this request held it — must not stay reserved.
        if probing:
            self.breaker.probe_aborted(request.cache_key)
        exc = (
            outcome
            if isinstance(outcome, Exception)
            else RuntimeError(f"unexpected outcome {outcome!r}")
        )
        return 500, canonical_bytes(error_payload(exc, error_type="ServerError")), {}

    def _unavailable(
        self, exc: ServiceUnavailable
    ) -> tuple[int, bytes, dict[str, str]]:
        """Render a typed shed as ``(status, body, headers)`` + tally it."""
        tally = {
            "Overloaded": "shed_overloaded",
            "Draining": "shed_draining",
            "Quarantined": "shed_quarantined",
        }.get(exc.error_type, "shed_overloaded")
        self._tally(tally)
        headers: dict[str, str] = {}
        if exc.retry_after is not None:
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
        return exc.http_status, canonical_bytes(error_payload(exc)), headers

    def _drain_retry_after(self) -> float:
        """Seconds after which a drained-off client should try again."""
        if self._drain_deadline is None:
            return 1.0
        return max(1.0, self._drain_deadline - time.monotonic())

    def _envelope(
        self, result_bytes: bytes, cache_status: str, t0: float, attempts: int
    ) -> bytes:
        """Splice canonical result bytes into the response envelope.

        The ``result`` section is the stored/cold bytes verbatim — this
        is what makes hit and cold responses byte-identical modulo the
        ``served`` timing section.
        """
        served = {
            "cache": cache_status,
            "seconds": round(time.perf_counter() - t0, 6),
            "attempts": attempts,
        }
        return (
            b'{"result":' + result_bytes + b',"served":' + canonical_bytes(served) + b"}"
        )

    # -- executor (called from the broker's dispatcher threads) --------

    def _verify_result(self, request: ServiceRequest, body_bytes: bytes) -> None:
        """The boundary integrity gate: distrust the bytes about to leave.

        Decodes the canonical result bytes *as the client will* and
        re-verifies them against the original request — identity fields,
        assignment validity, independently recomputed cut and balance
        (:mod:`repro.metrics.verify`).  Runs after the corruption chaos
        hook, so an armed ``server.verify`` rule proves corrupt bytes
        die here (typed ``IntegrityError`` 500) instead of reaching the
        cache, the state log, or a client.
        """
        try:
            body = json.loads(body_bytes)
        except ValueError as exc:
            raise IntegrityError(
                f"result bytes are not valid JSON: {exc}"
            ) from exc
        if request.op == "partition":
            verify_partition_body(
                request.hypergraph,
                body,
                digest=request.digest,
                fingerprint=request.fingerprint,
                settings=request.settings,
            )
        else:
            verify_place_body(
                request.hypergraph,
                body,
                digest=request.digest,
                fingerprint=request.fingerprint,
                settings=request.settings,
            )

    def _record_poison(self, key: str, error_type: str) -> None:
        """One breaker vote + its durable mirror (when persisting)."""
        cleared = self.breaker.record(key, error_type)
        if self.store is None:
            return
        if cleared:
            # A non-poison typed failure (deadline, in-worker error)
            # resets the key; the store must forget it too.
            self.store.record_breaker_clear(key)
            return
        snapshot = self.breaker.export_key(key)
        if snapshot is not None:
            self.store.record_breaker(
                key, snapshot["failures"], snapshot["open_elapsed"]
            )

    def _execute_batch(self, tasks: list) -> dict:
        requests = dict(tasks)
        pool_tasks = [
            (key, {"request": request, "obs": self.config.obs_enabled})
            for key, request in tasks
        ]
        self._tally("executions", len(pool_tasks))
        obs.count("server.executions", len(pool_tasks))
        results, _report = self.pool.map(pool_tasks)
        outcomes = {}
        for task_result in results:
            if task_result.ok:
                body = task_result.value["body"]
                hit = task_result.value["table_hit"]
                if hit is not None:
                    self._tally(f"worker_hypergraph_{'hits' if hit else 'misses'}")
                # The corruption chaos hook sits between the worker and
                # everything downstream: an armed ``server.verify`` rule
                # flips one byte here, and the gate below must catch it.
                body_bytes = faults.corrupt_bytes(
                    canonical_bytes(body), CORRUPTION_SITE
                )
                snapshot = task_result.value.get("obs")
                if snapshot and obs.is_enabled():
                    obs.registry().merge(snapshot)
                if self.config.verify_results:
                    try:
                        self._verify_result(requests[task_result.key], body_bytes)
                    except IntegrityError as exc:
                        # Corrupt results are failures with a poison
                        # vote: they never reach the cache, the state
                        # log, or a client.
                        self._tally("failures")
                        self._tally("verify_failures")
                        obs.count("server.errors")
                        obs.count("server.verify.failures")
                        self._record_poison(task_result.key, "IntegrityError")
                        outcomes[task_result.key] = _Failure(
                            error_type="IntegrityError",
                            message=f"result failed verification: {exc}",
                            attempts=task_result.attempts,
                        )
                        continue
                degraded = bool(body.get("degraded"))
                if degraded:
                    # A deadline-cut answer reflects wall-clock luck,
                    # not request content: serving it is fine, caching
                    # it would freeze the luck.
                    obs.count("server.cache.uncacheable")
                else:
                    self.cache.put(task_result.key, body_bytes)
                    if self.store is not None:
                        # Spill the verified bytes: what rehydrates is
                        # exactly what a warm hit serves today.
                        self.store.record_cache(task_result.key, body_bytes)
                # One breaker vote per *execution*: coalesced waiters
                # share this result and therefore this vote.
                cleared = self.breaker.record(task_result.key, None)
                if cleared and self.store is not None:
                    self.store.record_breaker_clear(task_result.key)
                outcomes[task_result.key] = _Success(
                    body_bytes=body_bytes,
                    attempts=task_result.attempts,
                    degraded=degraded,
                )
            else:
                message = task_result.error or "task failed"
                self._tally("failures")
                obs.count("server.errors")
                error_type = _FAILURE_ERROR_TYPES[task_result.failure]
                if task_result.aborted:
                    # pool.abort() cut this execution during drain: the
                    # daemon's doing, not a verdict on the request, so
                    # the breaker gets no vote — but a half-open probe
                    # that rode this execution must get its slot back.
                    self.breaker.probe_aborted(task_result.key)
                else:
                    self._record_poison(task_result.key, error_type)
                outcomes[task_result.key] = _Failure(
                    error_type=error_type,
                    message=message,
                    attempts=task_result.attempts,
                )
        return outcomes

    # -- introspection endpoints ---------------------------------------

    def health(self) -> dict:
        # pid + absolute started_at let a watchdog (or a failover
        # client) tell a restarted daemon from the one it last spoke
        # to; version pins which build is answering.
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "pid": os.getpid(),
            "version": __version__,
            "started_at": round(self._started_at, 3) if self._started_at else None,
            "uptime_seconds": round(time.time() - (self._started_at or time.time()), 3),
            "workers": self.config.workers,
            "transport": "unix" if self.config.socket_path else "tcp",
            "inflight": self.admission.inflight,
        }

    def metrics(self) -> dict:
        with self._tally_lock:
            service = dict(self._tallies)
        return {
            "service": service,
            "cache": self.cache.stats(),
            "broker": self.broker.stats(),
            "admission": self.admission.stats(),
            "breaker": self.breaker.stats(),
            "persist": self.store.stats() if self.store is not None else None,
            "drain": {
                "draining": self._draining.is_set(),
                "drain_timeout": self.config.drain_timeout,
                "drain_seconds": self._drain_seconds,
            },
            "obs": obs.registry().snapshot() if obs.is_enabled() else None,
        }
