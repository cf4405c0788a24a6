"""The daemon's HTTP/1.1 transport: kept connections, end to end.

A :class:`repro.server.ServiceClient` keeps one connection per endpoint
open across requests; the daemon answers each request in one write,
closes a connection whose request body it did not read, answers with
``Connection: close`` while draining, and ends kept connections when it
stops.  Covered here, over TCP and ``AF_UNIX``:

* twenty sequential requests through one client open one connection
  (the ``server.connections`` counter);
* a kept TCP connection pays no Nagle/delayed-ACK stall per request;
* a kept connection the daemon closed while idle (idle timeout, a
  restart on the same socket path) is replaced before the request is
  sent, and the request executes exactly once;
* after ``stop()`` a kept socket gets no answer, and the client's next
  call reports connection refused;
* threads sharing one client each get their own result;
* an answer sent before the request body was read closes the
  connection, so the body is never parsed as a second request.

Every test runs under ``no_leaked_handles``: a closed client and a
stopped daemon leave no socket behind.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.hypergraph import Hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.runtime import faults
from repro.server import (
    PartitionService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceConnectionError,
    app,
)

pytestmark = [
    pytest.mark.usefixtures("no_leaked_handles"),
    pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="AF_UNIX sockets are not available"
    ),
]

TRANSPORTS = ("tcp", "unix")


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
    graph = Hypergraph(vertices=range(12))
    for i in range(11):
        graph.add_edge([i, i + 1], name=f"c{i}")
    graph.add_edge([0, 6], name="x0")
    graph.add_edge([3, 9], name="x1")
    return graph


def _config(transport: str, tmp_path, **kwargs) -> ServiceConfig:
    if transport == "unix":
        return ServiceConfig(socket_path=str(tmp_path / "svc.sock"), **kwargs)
    return ServiceConfig(port=0, **kwargs)


def _client(svc: PartitionService, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 60.0)
    address = svc.address
    if isinstance(address, str):
        return ServiceClient(socket_path=address, **kwargs)
    return ServiceClient(url=svc.url, **kwargs)


def _raw_socket(svc: PartitionService) -> socket.socket:
    address = svc.address
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address)
    else:
        sock = socket.create_connection(address)
    sock.settimeout(10.0)
    return sock


def _read_all(sock: socket.socket) -> bytes:
    """Everything the daemon sends until it closes the connection."""
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def _read_response(sock: socket.socket) -> tuple[bytes, bytes]:
    """One response off a kept connection: ``(head, body)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-response: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head, body


def _connections(svc: PartitionService) -> int:
    return svc.metrics()["obs"]["counters"].get("server.connections", 0)


def _executions(svc: PartitionService) -> int:
    return svc.metrics()["service"]["executions"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_twenty_requests_use_one_connection(transport, tmp_path, h):
    with PartitionService(_config(transport, tmp_path, workers=1)) as svc:
        before = _connections(svc)
        with _client(svc) as client:
            for i in range(20):
                if i % 2:
                    assert client.healthz()["status"] == "ok"
                else:
                    response = client.partition(h, engine="fm", settings={"seed": i % 4})
                    assert response["result"]["cutsize"] >= 1
        assert _connections(svc) - before == 1


def test_kept_tcp_connection_has_no_delayed_ack_stall(h):
    """Headers and body in two writes would hold each response ~40 ms
    (Nagle against the client's delayed ACK); 60 round trips under
    1.2 s leave room for a slow host but not for that stall."""
    with PartitionService(ServiceConfig(port=0, workers=1)) as svc:
        with _client(svc) as client:
            client.partition(h, engine="fm", settings={"seed": 0})  # the miss
            before = _connections(svc)
            t0 = time.perf_counter()
            for _ in range(30):
                client.healthz()
            for _ in range(30):
                response = client.partition(h, engine="fm", settings={"seed": 0})
                assert response["served"]["cache"] == "hit"
            elapsed = time.perf_counter() - t0
        assert _connections(svc) == before  # all 60 on the kept connection
    assert elapsed < 1.2, f"60 kept-connection round trips took {elapsed:.2f}s"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_connection_closed_at_idle_timeout_is_replaced(transport, tmp_path, h, monkeypatch):
    monkeypatch.setattr(app._Handler, "timeout", 0.2)
    with PartitionService(_config(transport, tmp_path, workers=1)) as svc:
        with _client(svc, max_retries=0) as client:
            client.partition(h, engine="fm", settings={"seed": 0})
            before = (_connections(svc), _executions(svc))
            time.sleep(0.6)  # the daemon closes the idle connection
            response = client.partition(h, engine="fm", settings={"seed": 1})
            assert response["served"]["cache"] == "miss"
        after = (_connections(svc), _executions(svc))
    assert after[0] - before[0] == 1  # one fresh connection
    assert after[1] - before[1] == 1  # the request ran exactly once


def test_restart_on_the_same_socket_path_is_reached(tmp_path, h):
    path = str(tmp_path / "svc.sock")
    with ServiceClient(socket_path=path, timeout=60.0, max_retries=0) as client:
        with PartitionService(ServiceConfig(socket_path=path, workers=1)):
            client.wait_ready(timeout=10.0)
            client.partition(h, engine="fm", settings={"seed": 0})
        with PartitionService(ServiceConfig(socket_path=path, workers=1)) as successor:
            response = client.partition(h, engine="fm", settings={"seed": 1})
            assert response["served"]["cache"] == "miss"
            service = successor.metrics()["service"]
    # The successor answered, and ran the request exactly once.
    assert service["requests"] == 1
    assert service["executions"] == 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_stopped_service_answers_nothing_on_a_kept_socket(transport, tmp_path):
    svc = PartitionService(_config(transport, tmp_path, workers=1)).start()
    try:
        client = _client(svc, max_retries=0)
        assert client.healthz()["status"] == "ok"  # the kept connection
        with _raw_socket(svc) as sock:
            request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            sock.sendall(request)
            head, _ = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 200")
            svc.stop()
            try:
                sock.sendall(request)
                answer = _read_all(sock)
            except (BrokenPipeError, ConnectionResetError):
                answer = b""
            assert answer == b""
        with client, pytest.raises(ServiceConnectionError) as excinfo:
            client.healthz()
        assert excinfo.value.refused
    finally:
        svc.stop()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_threads_sharing_one_client_get_their_own_results(transport, tmp_path, h):
    graphs = [h]
    for k in range(1, 3):
        graph = Hypergraph(vertices=range(12))
        for i in range(12):
            graph.add_edge([i, (i + k + 1) % 12], name=f"e{i}")
        graphs.append(graph)
    jobs = [(g, seed) for g in range(len(graphs)) for seed in range(4)]
    with PartitionService(_config(transport, tmp_path, workers=2)) as svc:
        with _client(svc) as client:
            expected = {}
            for g, seed in jobs:
                result = client.partition(graphs[g], engine="fm", settings={"seed": seed})
                expected[g, seed] = result["result"]
            got: dict = {}
            errors: list = []

            def worker(offset: int) -> None:
                try:
                    for round_ in range(3):
                        for g, seed in jobs[offset::4]:
                            if round_ % 2:
                                client.healthz()
                            response = client.partition(
                                graphs[g], engine="fm", settings={"seed": seed}
                            )
                            got.setdefault((g, seed), []).append(response["result"])
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the checkouts finely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sorted(got) == sorted(expected)
    for key, results in got.items():
        assert len(results) == 3
        assert all(result == expected[key] for result in results), key


def test_closed_client_takes_no_requests(h):
    with PartitionService(ServiceConfig(port=0, workers=1)) as svc:
        client = _client(svc)
        client.healthz()
        client.close()
        with pytest.raises(ServiceClientError, match="closed"):
            client.healthz()
        client.close()  # idempotent


_SMUGGLED = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"

#: Requests the daemon answers without reading their body, each body a
#: complete second request.
_UNREAD_BODY_REQUESTS = {
    "unknown path 404": (
        b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(_SMUGGLED)
        + _SMUGGLED
    ),
    "no length 411": b"POST /partition HTTP/1.1\r\nHost: x\r\n\r\n" + _SMUGGLED,
    "oversized 413": (
        b"POST /partition HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999999\r\n\r\n"
        + _SMUGGLED
    ),
}


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", sorted(_UNREAD_BODY_REQUESTS))
def test_unread_body_is_never_parsed_as_a_request(transport, case, tmp_path):
    with PartitionService(_config(transport, tmp_path, workers=1)) as svc:
        with _raw_socket(svc) as sock:
            sock.sendall(_UNREAD_BODY_REQUESTS[case])
            answer = _read_all(sock)
    status = int(case.split()[-1])
    assert answer.startswith(b"HTTP/1.1 %d " % status), answer[:80]
    assert b"\r\nConnection: close\r\n" in answer
    assert answer.count(b"HTTP/1.1 ") == 1, "the body was served as a request"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_internal_error_closes_the_connection(transport, tmp_path, monkeypatch):
    with PartitionService(_config(transport, tmp_path, workers=1)) as svc:

        def explode(raw, expected_op=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(svc, "handle_request", explode)
        with _raw_socket(svc) as sock:
            sock.sendall(b"POST /partition HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
            answer = _read_all(sock)
    assert answer.startswith(b"HTTP/1.1 500 ")
    assert b"\r\nConnection: close\r\n" in answer
    assert json.loads(answer.partition(b"\r\n\r\n")[2])["error"]["type"] == "InternalError"


def test_draining_daemon_closes_each_connection(h):
    svc = PartitionService(ServiceConfig(port=0, workers=1, drain_timeout=10.0)).start()
    try:
        with _client(svc, max_retries=0) as client:
            faults.configure("server.request=slow:1:0.5", seed=5)
            inflight = threading.Thread(
                target=client.request,
                args=("POST", "/partition", {
                    "op": "partition", "engine": "fm",
                    "hypergraph": hypergraph_to_payload(h), "settings": {"seed": 0},
                }),
            )
            inflight.start()
            deadline = time.monotonic() + 5
            while svc.admission.inflight < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            deadline = time.monotonic() + 5
            while svc.health()["status"] != "draining":
                assert time.monotonic() < deadline, "never drained"
                time.sleep(0.01)
            with _raw_socket(svc) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                answer = _read_all(sock)
            inflight.join(timeout=30)
            stopper.join(timeout=30)
    finally:
        faults.configure(None)
        svc.stop()
    assert answer.startswith(b"HTTP/1.1 200 ")
    assert b"\r\nConnection: close\r\n" in answer
    assert json.loads(answer.partition(b"\r\n\r\n")[2])["status"] == "draining"
