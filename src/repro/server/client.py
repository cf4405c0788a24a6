"""A small blocking client for the partition daemon (or a fleet of them).

Speaks the :mod:`repro.server.protocol` JSON over TCP or an ``AF_UNIX``
socket.  The client keeps one HTTP/1.1 connection per endpoint open
across requests and lends it to one request at a time (a concurrent
request opens its own), so a request pays no connect and the daemon
starts no handler thread for it.  :meth:`ServiceClient.close` (or a
``with`` block) releases it.  A kept connection the daemon has closed
while it sat idle is replaced by a fresh connect before any byte is
sent, so a dead or restarted daemon still reads as connection refused.
Error responses raise :class:`ServiceResponseError` carrying the
structured error body, so callers branch on ``exc.error_type`` instead
of parsing messages.

Retry policy (``max_retries``, default 2): a retry happens **only** for
outcomes where the request provably never executed —

* connection refused / socket file missing (the daemon never saw it),
* a typed ``429 Overloaded`` shed,
* a typed ``503 Draining``/``ServiceUnavailable`` shed.

Typed 4xx request errors are deterministic and never retried; mid-flight
transport failures (reset after the bytes left, on a kept connection as
on a new one) and 500-family execution failures are never retried
either — the daemon may have done (or be doing) the work, and hammering
a failing request is exactly what the server's quarantine breaker
exists to punish.  ``Quarantined`` is therefore also not retried: its
cooldown is long by design.

Backoff between retries is decorrelated jitter
(``delay = uniform(base, prev * 3)``, capped), and a ``Retry-After``
hint from the daemon overrides the jitter when present (still capped by
``backoff_cap`` so a 30 s server hint cannot stall a test-scale client).

Failover (``endpoints=[...]``): the client can hold several equivalent
daemons.  Exactly the two outcomes that mean "this daemon is gone or
going" — connection refused, and a typed ``Draining`` shed — trigger a
**health-checked rotation**: the other endpoints are probed via
``/healthz`` and traffic moves to the first one answering ``"ok"``,
skipping the backoff sleep (the replacement is known healthy, so waiting
out the dead daemon's hint would be pure loss).  When no probe finds a
healthy replacement the client stays put and backs off as usual.
``Overloaded`` does *not* rotate — a 429 is the daemon managing a queue
it fully intends to serve, and honoring its ``Retry-After`` beats
stampeding the next instance.  Mid-flight deaths still never retry
anywhere: work that may have executed must not execute twice.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from urllib.parse import urlsplit

from repro.core.hypergraph import Hypergraph
from repro.io.json_io import hypergraph_to_payload

__all__ = [
    "ServiceClient",
    "ServiceClientError",
    "ServiceConnectionError",
    "ServiceResponseError",
]

#: ``error.type`` values that are safe to retry: the daemon *shed* the
#: request before execution.  Everything else either executed or will
#: deterministically fail again.
RETRYABLE_ERROR_TYPES = frozenset(
    {"Overloaded", "Draining", "ServiceUnavailable"}
)

#: The retryable subset that also means "move": the daemon is shutting
#: down (or already gone), so a healthy sibling should take the traffic.
FAILOVER_ERROR_TYPES = frozenset({"Draining"})


class ServiceClientError(RuntimeError):
    """Transport-level failure: cannot reach or parse the daemon."""


class ServiceConnectionError(ServiceClientError):
    """Could not connect at all.  ``refused=True`` means nobody was
    listening (connection refused / socket file absent) — the one
    transport failure where the request certainly never executed."""

    def __init__(self, message: str, refused: bool = False) -> None:
        super().__init__(message)
        self.refused = refused


class ServiceResponseError(ServiceClientError):
    """The daemon answered with a structured error body."""

    def __init__(
        self, status: int, error: dict, retry_after: float | None = None
    ) -> None:
        self.status = status
        self.error = error
        self.error_type = error.get("type", "Unknown")
        self.retry_after = retry_after
        super().__init__(
            f"HTTP {status}: [{self.error_type}] {error.get('message', '')}"
        )


def _parse_retry_after(value: str | None) -> float | None:
    """Parse a delta-seconds ``Retry-After`` header (dates unsupported)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _closed_by_peer(sock: socket.socket) -> bool:
    """Is an idle kept connection readable?

    Between responses the daemon sends nothing, so a readable idle
    connection holds EOF or a reset: the daemon closed it (idle timeout,
    drain, restart, death) and it must carry no further request.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` stream socket."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self._path)
        except BaseException:
            sock.close()  # a refused connect must not leak the socket
            raise
        self.sock = sock


class _Endpoint:
    """One daemon address: a TCP ``host:port`` or a UNIX socket path."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.socket_path = socket_path
        self.host = host
        self.port = port
        # The kept connection while no request holds it.
        self.idle: http.client.HTTPConnection | None = None

    @classmethod
    def parse(cls, spec: str) -> "_Endpoint":
        """``unix:/path``, ``http://host:port``, or bare ``host:port``."""
        if spec.startswith("unix:"):
            path = spec[len("unix:"):]
            if not path:
                raise ServiceClientError(f"empty socket path in endpoint {spec!r}")
            return cls(socket_path=path)
        parts = urlsplit(spec if "//" in spec else f"http://{spec}")
        if parts.scheme not in ("", "http") or parts.hostname is None:
            raise ServiceClientError(f"unsupported service endpoint {spec!r}")
        return cls(host=parts.hostname, port=parts.port or 80)

    def connection(self, timeout: float) -> http.client.HTTPConnection:
        if self.socket_path is not None:
            conn = _UnixHTTPConnection(self.socket_path, timeout)
        else:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        # Connect only through ServiceClient._checkout, which tells a
        # refused daemon from a mid-flight failure; never silently.
        conn.auto_open = 0
        return conn

    def __str__(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"


class ServiceClient:
    """Blocking JSON client for one daemon or a failover set of them.

    Address the client one of three ways (exactly one):

    * ``url="http://host:port"`` — a single TCP daemon;
    * ``socket_path="/run/repro.sock"`` — a single UNIX-socket daemon;
    * ``endpoints=["http://a:9000", "unix:/run/b.sock", ...]`` — a
      failover set; the first entry is preferred, rotation is by the
      policy in the module docstring.

    The client holds a kept connection per endpoint: use it in a
    ``with`` block or call :meth:`close` when done.  Threads may share
    one client.
    """

    def __init__(
        self,
        url: str | None = None,
        socket_path: str | None = None,
        timeout: float = 120.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int | None = None,
        endpoints: list[str] | tuple[str, ...] | None = None,
        probe_timeout: float = 1.0,
    ) -> None:
        given = sum(x is not None for x in (url, socket_path, endpoints))
        if given != 1:
            raise ServiceClientError(
                "give exactly one of url= (TCP), socket_path= (AF_UNIX), "
                "or endpoints= (failover set)"
            )
        if max_retries < 0:
            raise ServiceClientError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.probe_timeout = probe_timeout
        self._rng = random.Random(retry_seed)
        if endpoints is not None:
            if not endpoints:
                raise ServiceClientError("endpoints= must name at least one daemon")
            self._endpoints = [_Endpoint.parse(spec) for spec in endpoints]
        elif socket_path is not None:
            self._endpoints = [_Endpoint(socket_path=socket_path)]
        else:
            self._endpoints = [_Endpoint.parse(url)]
        self._active = 0
        self.failovers = 0  # completed health-checked rotations
        self._lock = threading.Lock()  # guards each endpoint's idle slot
        self._closed = False

    # -- endpoint bookkeeping ------------------------------------------

    @property
    def active_endpoint(self) -> str:
        """The endpoint currently taking this client's traffic."""
        return str(self._endpoints[self._active])

    @property
    def endpoints(self) -> list[str]:
        return [str(endpoint) for endpoint in self._endpoints]

    # Back-compat accessors: code written against the single-endpoint
    # client reads these off instances (bench, loadgen, tests).
    @property
    def socket_path(self) -> str | None:
        return self._endpoints[self._active].socket_path

    @property
    def host(self) -> str | None:
        return self._endpoints[self._active].host

    @property
    def port(self) -> int | None:
        return self._endpoints[self._active].port

    # -- transport -----------------------------------------------------

    def _checkout(
        self, endpoint: _Endpoint, timeout: float
    ) -> http.client.HTTPConnection:
        """Lend ``endpoint``'s kept connection, or connect a new one.

        The kept connection is checked before any byte leaves: one the
        daemon has closed is dropped here, and the connect that replaces
        it raises ``OSError`` exactly as a first connect would.
        """
        with self._lock:
            if self._closed:
                raise ServiceClientError("the client is closed")
            conn, endpoint.idle = endpoint.idle, None
        if conn is not None:
            if not _closed_by_peer(conn.sock):
                conn.sock.settimeout(timeout)
                return conn
            conn.close()
        conn = endpoint.connection(timeout)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return conn

    def _checkin(
        self, endpoint: _Endpoint, conn: http.client.HTTPConnection, reusable: bool
    ) -> None:
        """Keep ``conn`` for ``endpoint``'s next request, or close it.

        Only a connection whose response was read in full and which the
        daemon left open (no ``Connection: close``) is kept, and only
        one per endpoint.
        """
        if reusable and conn.sock is not None:
            with self._lock:
                if not self._closed and endpoint.idle is None:
                    endpoint.idle = conn
                    return
        conn.close()

    def close(self) -> None:
        """Close the kept connections; the client takes no more requests."""
        with self._lock:
            self._closed = True
            kept = [endpoint.idle for endpoint in self._endpoints]
            for endpoint in self._endpoints:
                endpoint.idle = None
        for conn in kept:
            if conn is not None:
                conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request_once(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        endpoint: _Endpoint | None = None,
        timeout: float | None = None,
    ) -> tuple[int, bytes, float | None]:
        """One HTTP round trip: ``(status, body_bytes, retry_after)``."""
        if endpoint is None:
            endpoint = self._endpoints[self._active]
        try:
            conn = self._checkout(endpoint, self.timeout if timeout is None else timeout)
        except OSError as exc:
            # Nobody listening: the request never left this process.
            refused = isinstance(exc, (ConnectionRefusedError, FileNotFoundError))
            raise ServiceConnectionError(
                f"{method} {path} @ {endpoint}: cannot connect: {exc}",
                refused=refused,
            ) from exc
        done = False
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            done = True
        except (OSError, http.client.HTTPException) as exc:
            # Mid-flight failure — the daemon may have executed the
            # request; the caller must not blindly retry.
            raise ServiceClientError(
                f"{method} {path} @ {endpoint} failed: {exc}"
            ) from exc
        finally:
            self._checkin(endpoint, conn, reusable=done)
        retry_after = _parse_retry_after(response.getheader("Retry-After"))
        return response.status, raw, retry_after

    def request_raw(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """One HTTP round trip (no retries); ``(status, body_bytes)``."""
        status, raw, _ = self._request_once(method, path, body)
        return status, raw

    def _probe(self, endpoint: _Endpoint) -> bool:
        """Is ``endpoint`` up and answering ``"ok"`` on ``/healthz``?"""
        try:
            status, raw, _ = self._request_once(
                "GET", "/healthz", endpoint=endpoint, timeout=self.probe_timeout
            )
            if status != 200:
                return False
            return json.loads(raw.decode("utf-8")).get("status") == "ok"
        except (ServiceClientError, ValueError):
            return False

    def _failover(self) -> bool:
        """Health-checked rotation away from the active endpoint.

        Probes the other endpoints in ring order and moves traffic to
        the first healthy one; returns True on a completed rotation.
        With one endpoint (or no healthy sibling) nothing moves and the
        caller falls back to backing off in place.
        """
        total = len(self._endpoints)
        for step in range(1, total):
            candidate = (self._active + step) % total
            if self._probe(self._endpoints[candidate]):
                self._active = candidate
                self.failovers += 1
                return True
        return False

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        max_retries: int | None = None,
    ) -> dict:
        """Round trip + JSON decode, with the shed-aware retry policy.

        Raises :class:`ServiceResponseError` on structured error bodies
        once retries (see the module docstring for what qualifies) are
        exhausted.  ``max_retries`` overrides the client default for
        this one call (``0`` = exactly one attempt).
        """
        body = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            if payload is not None
            else None
        )
        retries = self.max_retries if max_retries is None else max_retries
        delay = self.backoff_base
        attempt = 0
        while True:
            attempt += 1
            try:
                status, raw, retry_after = self._request_once(method, path, body)
            except ServiceConnectionError as exc:
                if not exc.refused or attempt > retries:
                    raise
                # The request never executed; a healthy sibling can take
                # it immediately, otherwise wait out the backoff here.
                if not self._failover():
                    delay = self._backoff(delay, None)
                continue
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceClientError(
                    f"{method} {path}: daemon sent undecodable body ({exc})"
                ) from None
            if status == 200:
                return decoded
            error = decoded.get("error", {})
            response_error = ServiceResponseError(status, error, retry_after)
            retryable = (
                status in (429, 503)
                and response_error.error_type in RETRYABLE_ERROR_TYPES
            )
            if not retryable or attempt > retries:
                raise response_error
            hint = retry_after
            if hint is None:
                hint = error.get("retry_after")
            if (
                response_error.error_type in FAILOVER_ERROR_TYPES
                and self._failover()
            ):
                # The shed daemon is going away and a healthy sibling
                # answered the probe: its Retry-After describes the
                # *draining* daemon, so go now instead of sleeping.
                continue
            delay = self._backoff(delay, hint)

    def _backoff(self, previous: float, hint: float | None) -> float:
        """Sleep before a retry; returns the delay for the *next* one.

        Decorrelated jitter keeps a shed client herd from re-arriving in
        lockstep; a server ``Retry-After`` hint wins over the jitter but
        is still capped so it cannot stall the client arbitrarily.
        """
        if hint is not None and hint > 0:
            delay = min(float(hint), self.backoff_cap)
        else:
            delay = min(
                self.backoff_cap,
                self._rng.uniform(self.backoff_base, previous * 3),
            )
        time.sleep(delay)
        return max(delay, self.backoff_base)

    # -- readiness -----------------------------------------------------

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.02) -> dict:
        """Poll ``/healthz`` until a daemon answers (no sleeps-and-hope).

        Connection-refused means "not up *yet*": with one endpoint the
        poll keeps trying it with a capped exponential interval; with a
        failover set every endpoint is tried each cycle and the first
        one answering becomes the active endpoint.  Any other failure —
        an HTTP error body, an undecodable response, a mid-flight
        transport death — means something is listening but broken, and
        fails fast with that context instead of burning the timeout.

        Returns the health payload; raises :class:`ServiceClientError`
        if no daemon is up within ``timeout`` seconds.
        """
        t0 = time.monotonic()
        last_error: str | None = None
        poll = max(0.001, interval)
        total = len(self._endpoints)
        while time.monotonic() - t0 < timeout:
            for step in range(total):
                candidate = (self._active + step) % total
                try:
                    status, raw, _ = self._request_once(
                        "GET", "/healthz", endpoint=self._endpoints[candidate]
                    )
                except ServiceConnectionError as exc:
                    if not exc.refused:
                        raise
                    # The text, not the exception: its traceback holds
                    # this frame, and so this client and its kept
                    # connection, until the garbage collector runs.
                    last_error = str(exc)
                    continue
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ServiceClientError(
                        f"GET /healthz: daemon sent undecodable body ({exc})"
                    ) from None
                if status != 200:
                    raise ServiceResponseError(status, payload.get("error", {}))
                self._active = candidate
                return payload
            time.sleep(min(poll, max(0.0, timeout - (time.monotonic() - t0))))
            # Capped exponential: a daemon that comes up is noticed
            # within 50 ms, whenever in the wait that happens.
            poll = min(poll * 2, 0.05)
        raise ServiceClientError(
            f"daemon not ready after {timeout}s (last error: {last_error})"
        )

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def partition(
        self,
        hypergraph: Hypergraph | dict,
        engine: str = "algorithm1",
        settings: dict | None = None,
    ) -> dict:
        """Partition a hypergraph (object or already-encoded payload)."""
        return self.request("POST", "/partition", self._body(
            "partition", hypergraph, {"engine": engine}, settings
        ))

    def place(
        self,
        hypergraph: Hypergraph | dict,
        placer: str = "mincut",
        settings: dict | None = None,
    ) -> dict:
        """Place a hypergraph (object or already-encoded payload)."""
        return self.request("POST", "/place", self._body(
            "place", hypergraph, {"placer": placer}, settings
        ))

    @staticmethod
    def _body(
        op: str, hypergraph: Hypergraph | dict, engine_key: dict, settings: dict | None
    ) -> dict:
        payload = (
            hypergraph_to_payload(hypergraph)
            if isinstance(hypergraph, Hypergraph)
            else hypergraph
        )
        body = {"op": op, "hypergraph": payload, **engine_key}
        if settings:
            body["settings"] = settings
        return body
