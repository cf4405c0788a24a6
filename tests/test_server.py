"""Black-box tests for the partition service (``repro.server``).

Everything here talks to a real daemon over a real transport (TCP on an
OS-assigned port, or an AF_UNIX socket in a tmpdir) through
:class:`repro.server.ServiceClient` — no reaching into service
internals except via ``/metrics``, a spy on ``parse_request`` and
``cache.clear()`` for the repeat alias.  Covered:

* cache-hit responses byte-identical to the cold run (modulo the
  ``served`` timing section);
* repeats of a cached body served by alias, without parsing, and the
  alias table's bounds and lifetime;
* N identical concurrent requests coalescing onto exactly one pool
  execution;
* per-request deadline enforcement (degraded results served, never
  cached);
* LRU eviction under a tiny byte budget;
* structured error responses for every malformed-payload shape — typed
  ``RequestError`` context, never a stack trace;
* cache/dedupe observability in ``/metrics`` (and the disabled-path
  zero-cost contract from ``tests/test_obs.py``);
* a hypothesis property: any interleaving of distinct/duplicate
  requests returns the same cuts as sequential cold runs.

Fixtures bind port 0 / tmpdir sockets, poll readiness (no sleeps), and
tear the daemon down, so ``-x -q`` stays deterministic.
"""

from __future__ import annotations

import json
import os
import socket as socket_module
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime import faults
from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES, run_engine
from repro.io.json_io import hypergraph_to_payload
from repro.placement import mincut_place
from repro.server import (
    PartitionService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceError,
    ServiceResponseError,
    app,
)
from repro.server.cache import ResultCache, body_alias

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


@pytest.fixture(autouse=True)
def _obs_reset():
    """The daemon enables obs; leave the global switchboard clean."""
    obs.disable()
    obs.registry().clear()
    yield
    obs.disable()
    obs.registry().clear()


def _graph(seed_edges) -> Hypergraph:
    h = Hypergraph(vertices=range(12))
    for i, pins in enumerate(seed_edges):
        h.add_edge(list(pins), name=f"n{i}")
    return h


EDGESETS = [
    [(0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (6, 7, 8), (8, 9), (9, 10, 11), (11, 0)],
    [(0, 3), (1, 4), (2, 5), (0, 1, 2), (3, 4, 5), (6, 7, 8, 9), (9, 10, 11), (5, 6)],
]

# Int labels 8 apart share a bucket of a small set's hash table, so every
# member frozenset below iterates in another order after a pickle round
# trip (``list(frozenset([3, 11]))`` is ``[11, 3]``, pickled ``[3, 11]``),
# as a request does on its way to a daemon worker.
PICKLE_REORDERED = [
    (3, 11), (11, 19, 3), (19, 27), (27, 35, 43), (43, 51), (51, 59, 3), (59, 67), (67, 75, 11)
]


@pytest.fixture
def h() -> Hypergraph:
    return _graph(EDGESETS[0])


@pytest.fixture
def service():
    svc = PartitionService(ServiceConfig(port=0, workers=2)).start()
    client = ServiceClient(url=svc.url, timeout=120.0)
    client.wait_ready(timeout=10.0)
    yield svc, client
    client.close()
    svc.stop()


def _post_raw(client: ServiceClient, body: dict | bytes, path: str = "/partition"):
    raw = (
        body
        if isinstance(body, bytes)
        else json.dumps(body).encode("utf-8")
    )
    return client.request_raw("POST", path, raw)


def _partition_body(h: Hypergraph, engine: str = "fm", **settings) -> dict:
    body = {"op": "partition", "engine": engine, "hypergraph": hypergraph_to_payload(h)}
    if settings:
        body["settings"] = settings
    return body


class TestLifecycle:
    def test_healthz(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["transport"] == "tcp"
        assert health["uptime_seconds"] >= 0

    def test_wait_ready_times_out_against_nothing(self):
        # Grab a port that nothing is listening on.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(url=f"http://127.0.0.1:{port}", timeout=0.2)
        with pytest.raises(ServiceClientError, match="not ready"):
            client.wait_ready(timeout=0.3, interval=0.05)

    def test_client_needs_exactly_one_transport(self):
        with pytest.raises(ServiceClientError):
            ServiceClient()
        with pytest.raises(ServiceClientError):
            ServiceClient(url="http://x:1", socket_path="/tmp/y")

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_misses_reuse_workers_and_stop_ends_them(self, h):
        before = _live_children()
        svc = PartitionService(ServiceConfig(port=0, workers=2)).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            for seed in range(4):
                client.partition(h, engine="fm", settings={"seed": seed})
            workers = _live_children() - before
            metrics = client.metrics()
            listener = f"socket:[{os.fstat(svc._httpd.socket.fileno()).st_ino}]"
            # Beyond stdio, a worker holds its own pipe and nothing else.
            held = {
                pid: [os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")
                      if int(fd) > 2]
                for pid in workers
            }
        finally:
            svc.stop()
        assert metrics["service"]["executions"] == 4
        assert 1 <= len(workers) <= 2
        assert metrics["obs"]["counters"]["runtime.supervisor.spawns"] == len(workers)
        for links in held.values():
            assert len(links) == 1 and links[0] != listener
        assert not (_live_children() & workers)


class TestCacheByteIdentity:
    def test_hit_result_section_is_byte_identical(self, service, h):
        _, client = service
        body = _partition_body(h, engine="algorithm1", starts=4, seed=7)
        status1, raw1 = _post_raw(client, body)
        status2, raw2 = _post_raw(client, body)
        assert status1 == status2 == 200
        # The envelope is {"result":<canonical bytes>,"served":{...}};
        # the result section must match byte for byte.
        result1, served1 = raw1.split(b',"served":')
        result2, served2 = raw2.split(b',"served":')
        assert result1 == result2
        assert json.loads(raw2)["served"]["cache"] == "hit"
        assert json.loads(raw1)["served"]["cache"] == "miss"

    def test_hit_skips_execution(self, service, h):
        _, client = service
        client.partition(h, engine="fm", settings={"seed": 1})
        before = client.metrics()["service"]["executions"]
        response = client.partition(h, engine="fm", settings={"seed": 1})
        assert response["served"]["cache"] == "hit"
        assert response["served"]["attempts"] == 0
        assert client.metrics()["service"]["executions"] == before

    def test_normalized_settings_share_a_cache_entry(self, service, h):
        _, client = service
        # Explicit defaults and omitted settings mean the same run.
        first = client.partition(
            h, engine="fm", settings={"seed": 0, "starts": 10, "balance_tolerance": 0.1}
        )
        second = client.partition(h, engine="fm")
        assert second["served"]["cache"] == "hit"
        assert second["result"] == first["result"]

    def test_different_settings_miss(self, service, h):
        _, client = service
        client.partition(h, engine="fm", settings={"seed": 0})
        response = client.partition(h, engine="fm", settings={"seed": 1})
        assert response["served"]["cache"] == "miss"

    def test_different_graph_misses(self, service):
        _, client = service
        client.partition(_graph(EDGESETS[0]), engine="fm")
        response = client.partition(_graph(EDGESETS[1]), engine="fm")
        assert response["served"]["cache"] == "miss"


def _served(raw: bytes) -> str:
    return json.loads(raw)["served"]["cache"]


@pytest.fixture
def parse_spy(monkeypatch):
    """Counts the daemon's calls of ``parse_request``."""
    calls = []
    original = app.parse_request

    def spy(raw, expected_op=None, **kwargs):
        calls.append(raw)
        return original(raw, expected_op=expected_op, **kwargs)

    monkeypatch.setattr(app, "parse_request", spy)
    return calls


class TestRepeatAlias:
    """A body byte-identical to one whose result is cached skips parsing."""

    def test_repeat_is_a_hit_without_parsing(self, service, h, parse_spy):
        _, client = service
        body = json.dumps(_partition_body(h, engine="algorithm1", starts=4, seed=7)).encode()
        status1, raw1 = _post_raw(client, body)
        assert len(parse_spy) == 1
        status2, raw2 = _post_raw(client, body)
        assert status1 == status2 == 200
        assert _served(raw1) == "miss"
        assert _served(raw2) == "hit"
        assert raw1.split(b',"served":')[0] == raw2.split(b',"served":')[0]
        assert len(parse_spy) == 1, "the repeat was parsed"
        cache = client.metrics()["cache"]
        assert cache["alias_hits"] == 1
        assert cache["hits"] == 1
        assert cache["aliases"] == 1

    def test_a_hit_after_parsing_aliases_the_new_spelling(self, service, h, parse_spy):
        _, client = service
        body = _partition_body(h, engine="fm", seed=3)
        _post_raw(client, json.dumps(body).encode())
        # Same request, other bytes: parsed once, then served by alias.
        respelled = json.dumps(body, indent=1).encode()
        assert _served(_post_raw(client, respelled)[1]) == "hit"
        assert _served(_post_raw(client, respelled)[1]) == "hit"
        assert len(parse_spy) == 2
        cache = client.metrics()["cache"]
        assert (cache["hits"], cache["alias_hits"], cache["aliases"]) == (2, 1, 2)

    def test_same_bytes_on_another_endpoint_are_still_refused(self, service, h):
        _, client = service
        body = json.dumps(_partition_body(h, engine="fm")).encode()
        assert _post_raw(client, body)[0] == 200
        status, raw = _post_raw(client, body, path="/place")
        assert status == 400
        assert "does not match" in json.loads(raw)["error"]["message"]
        # The generic endpoint accepts it: parsed there, then aliased too.
        assert _served(_post_raw(client, body, path="/")[1]) == "hit"
        assert client.metrics()["cache"]["aliases"] == 2

    def test_repeat_after_clear_reparses_and_misses_once(self, service, h, parse_spy):
        svc, client = service
        body = json.dumps(_partition_body(h, engine="fm", seed=4)).encode()
        first = _post_raw(client, body)[1]
        svc.cache.clear()
        before = client.metrics()
        again = _post_raw(client, body)[1]
        after = client.metrics()
        assert _served(again) == "miss"
        assert len(parse_spy) == 2
        assert after["cache"]["misses"] == before["cache"]["misses"] + 1
        assert after["service"]["executions"] == before["service"]["executions"] + 1
        assert again.split(b',"served":')[0] == first.split(b',"served":')[0]
        assert _served(_post_raw(client, body)[1]) == "hit"
        assert len(parse_spy) == 2

    def test_repeat_after_eviction_reparses_and_misses_once(self, h, parse_spy):
        svc = PartitionService(ServiceConfig(port=0, workers=1, cache_max_entries=1)).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            body_a = json.dumps(_partition_body(h, engine="fm", seed=0)).encode()
            body_b = json.dumps(_partition_body(h, engine="fm", seed=1)).encode()
            _post_raw(client, body_a)
            _post_raw(client, body_b)  # evicts a's entry; a's alias goes stale
            before = client.metrics()
            assert _served(_post_raw(client, body_a)[1]) == "miss"
            after = client.metrics()
            assert len(parse_spy) == 3
            assert after["cache"]["misses"] == before["cache"]["misses"] + 1
            assert after["service"]["executions"] == before["service"]["executions"] + 1
            assert after["cache"]["aliases"] <= 1
        finally:
            svc.stop()

    def test_malformed_bodies_leave_no_alias(self, service, parse_spy):
        _, client = service
        for _ in range(2):
            assert _post_raw(client, b"{broken")[0] == 400
        assert len(parse_spy) == 2
        metrics = client.metrics()
        assert metrics["cache"]["aliases"] == 0
        assert metrics["service"]["malformed"] == 2

    def test_degraded_results_leave_no_alias(self, service, parse_spy):
        _, client = service
        big = Hypergraph(vertices=range(60))
        import random as random_module

        rng = random_module.Random(5)
        for i in range(120):
            big.add_edge(rng.sample(range(60), rng.choice([2, 3, 4])), name=f"e{i}")
        body = json.dumps(
            _partition_body(big, engine="algorithm1", starts=400, seed=0, deadline_seconds=0.02)
        ).encode()
        for _ in range(2):
            raw = _post_raw(client, body)[1]
            assert json.loads(raw)["result"]["degraded"] is True
            assert _served(raw) == "miss"
        assert len(parse_spy) == 2
        assert client.metrics()["cache"]["aliases"] == 0

    def test_rejected_results_leave_no_alias(self, h, parse_spy):
        # Every result is larger than the byte budget: the cache refuses it.
        svc = PartitionService(ServiceConfig(port=0, workers=1, cache_max_bytes=64)).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            body = json.dumps(_partition_body(h, engine="fm")).encode()
            for _ in range(2):
                assert _served(_post_raw(client, body)[1]) == "miss"
            cache = client.metrics()["cache"]
            assert cache["rejected"] == 2
            assert cache["aliases"] == 0
            assert len(parse_spy) == 2
        finally:
            svc.stop()

    def test_alias_table_never_exceeds_the_entry_cap(self, h):
        svc = PartitionService(ServiceConfig(port=0, workers=1, cache_max_entries=2)).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            for seed in range(3):
                body = _partition_body(h, engine="fm", seed=seed)
                # Three spellings per request: one miss, then two hits
                # that parse and alias their own bytes.
                for indent in (None, 1, 2):
                    _post_raw(client, json.dumps(body, indent=indent).encode())
                    cache = client.metrics()["cache"]
                    assert cache["aliases"] <= 2
            assert cache["aliases"] == 2
        finally:
            svc.stop()

    def test_alias_table_unit_bounds_and_liveness(self):
        cache = ResultCache(max_entries=3)
        assert not cache.add_alias(b"x", "absent")  # only cached keys
        for i in range(5):
            cache.put(f"k{i}", b"v%d" % i)
            cache.add_alias(body_alias(b"body%d" % i, "partition"), f"k{i}")
            assert cache.stats()["aliases"] <= 3
        assert cache.get_alias(body_alias(b"body4", "partition")) == b"v4"
        assert cache.get_alias(body_alias(b"body4", "place")) is None
        assert cache.get_alias(body_alias(b"body0", "partition")) is None
        stats = cache.stats()
        assert (stats["hits"], stats["alias_hits"], stats["misses"]) == (1, 1, 0)


class TestEngineParity:
    @staticmethod
    def assert_served_equals_local(client, h, engine):
        response = client.partition(h, engine=engine, settings={"starts": 4, "seed": 3})
        local_bp, _ = run_engine(engine, h, seed=3, starts=4)
        assert response["result"]["cutsize"] == local_bp.cutsize
        assert response["result"]["weighted_cutsize"] == local_bp.weighted_cutsize
        left = frozenset(response["result"]["left"])
        assert left in (local_bp.left, local_bp.right)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_served_cut_equals_local_run(self, service, h, engine):
        self.assert_served_equals_local(service[1], h, engine)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_served_cut_equals_local_run_when_pickling_reorders_pins(self, service, engine):
        h = Hypergraph(edges={f"n{i}": list(pins) for i, pins in enumerate(PICKLE_REORDERED)})
        self.assert_served_equals_local(service[1], h, engine)

    def test_place_matches_local_run(self, service, h):
        _, client = service
        response = client.place(
            h, placer="mincut", settings={"seed": 2, "partitioner": "fm"}
        )
        local = mincut_place(h, partitioner="fm", seed=2)
        assert response["result"]["total_hpwl"] == pytest.approx(local.total_hpwl)
        assert response["result"]["grid"] == {
            "rows": local.grid.rows,
            "cols": local.grid.cols,
        }
        positions = {tuple(slot) for _, slot in response["result"]["positions"]}
        assert len(positions) == h.num_vertices

    @pytest.mark.parametrize("placer", ["mincut", "annealing", "quadratic"])
    def test_all_placers_serve(self, service, h, placer):
        _, client = service
        response = client.place(h, placer=placer, settings={"seed": 0})
        assert response["result"]["op"] == "place"
        assert response["result"]["placer"] == placer
        assert len(response["result"]["positions"]) == h.num_vertices


class TestDedupe:
    def test_identical_concurrent_requests_execute_once(self, h):
        # workers=2 proves dedupe isn't pool starvation; the slow worker
        # holds the one execution open so every thread lands on it.
        svc = PartitionService(ServiceConfig(port=0, workers=2)).start()
        faults.configure("server.request=slow:1:0.5", seed=3)
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            body = _partition_body(h, engine="algorithm1", starts=8, seed=5)
            n = 6
            barrier = threading.Barrier(n)
            statuses: list[str] = []
            errors: list[Exception] = []
            lock = threading.Lock()

            def fire():
                try:
                    barrier.wait(timeout=10)
                    status, raw = _post_raw(client, body)
                    assert status == 200
                    with lock:
                        statuses.append(json.loads(raw)["served"]["cache"])
                except Exception as exc:  # surfaced after join
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert len(statuses) == n
            # Exactly one request created the execution; everyone else
            # coalesced onto it (or arrived late enough for a cache hit).
            assert statuses.count("miss") == 1
            assert set(statuses) <= {"miss", "coalesced", "hit"}
            metrics = client.metrics()
            assert metrics["service"]["executions"] == 1
            assert metrics["service"]["coalesced"] >= n - 2
            assert metrics["broker"]["coalesced"] == metrics["service"]["coalesced"]
        finally:
            faults.configure(None)
            svc.stop()

    def test_distinct_concurrent_requests_all_execute(self, service, h):
        _, client = service
        n = 4
        barrier = threading.Barrier(n)
        results: list[dict] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def fire(seed: int):
            try:
                barrier.wait(timeout=10)
                response = client.partition(h, engine="fm", settings={"seed": seed})
                with lock:
                    results.append(response)
            except Exception as exc:
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=fire, args=(seed,)) for seed in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(results) == n
        assert client.metrics()["service"]["executions"] == n
        by_seed = {r["result"]["settings"]["seed"]: r for r in results}
        for seed in range(n):
            local_bp, _ = run_engine("fm", h, seed=seed, starts=10)
            assert by_seed[seed]["result"]["cutsize"] == local_bp.cutsize

    def test_distinct_misses_run_on_both_workers_at_once(self, h):
        """With workers=2, a second distinct miss that arrives while the
        first is executing starts at once: the pair takes about one slow
        worker period, not two back to back."""
        slow = 1.0
        svc = PartitionService(ServiceConfig(port=0, workers=2)).start()
        faults.configure(f"server.request=slow:1:{slow}", seed=3)
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            statuses: list[str] = []

            def fire(seed: int):
                response = client.partition(h, engine="fm", settings={"seed": seed})
                statuses.append(response["served"]["cache"])

            t0 = time.monotonic()
            first = threading.Thread(target=fire, args=(0,))
            first.start()
            deadline = time.monotonic() + 10
            while client.metrics()["service"]["executions"] < 1:
                assert time.monotonic() < deadline, "first miss never executed"
                time.sleep(0.01)
            second = threading.Thread(target=fire, args=(1,))
            second.start()
            for t in (first, second):
                t.join(timeout=60)
            elapsed = time.monotonic() - t0
            assert statuses == ["miss", "miss"]
            assert elapsed < 1.6 * slow, elapsed
            metrics = client.metrics()
            assert metrics["service"]["executions"] == 2
            assert metrics["broker"]["batches"] == 2
        finally:
            faults.configure(None)
            svc.stop()


    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_busy_daemon_never_runs_more_than_workers_processes(self, h):
        svc = PartitionService(ServiceConfig(port=0, workers=2)).start()
        faults.configure("server.request=slow:1:0.4", seed=3)
        before = _live_children()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            threads = [
                threading.Thread(
                    target=client.partition, args=(h,),
                    kwargs={"engine": "fm", "settings": {"seed": seed}},
                )
                for seed in range(5)
            ]
            for t in threads:
                t.start()
            peak = 0
            while any(t.is_alive() for t in threads):
                peak = max(peak, len(_live_children() - before))
                time.sleep(0.005)
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert peak == 2
            assert client.metrics()["service"]["executions"] == 5
        finally:
            faults.configure(None)
            svc.stop()


def _live_children() -> set[int]:
    """PIDs of this process's children that have not exited yet."""
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.add(int(entry))
    return found


class TestDeadline:
    def test_degraded_result_served_but_not_cached(self, service):
        _, client = service
        big = Hypergraph(vertices=range(60))
        import random as random_module

        rng = random_module.Random(5)
        for i in range(120):
            big.add_edge(rng.sample(range(60), rng.choice([2, 3, 4])), name=f"e{i}")
        settings = {"starts": 400, "seed": 0, "deadline_seconds": 0.02}
        first = client.partition(big, engine="algorithm1", settings=settings)
        assert first["result"]["degraded"] is True
        assert first["result"]["degrade_reason"]
        # Degraded answers depend on wall-clock luck -> never cached.
        second = client.partition(big, engine="algorithm1", settings=settings)
        assert second["served"]["cache"] == "miss"
        metrics = client.metrics()
        assert metrics["service"]["degraded"] >= 2
        assert metrics["cache"]["entries"] == 0

    def test_deadline_is_part_of_the_cache_key(self, service, h):
        _, client = service
        no_deadline = client.partition(h, engine="fm", settings={"seed": 0})
        with_deadline = client.partition(
            h, engine="fm", settings={"seed": 0, "deadline_seconds": 60.0}
        )
        # A generous deadline doesn't degrade, so both cache — under
        # different keys (the fingerprint covers deadline_seconds).
        assert no_deadline["served"]["cache"] == "miss"
        assert with_deadline["served"]["cache"] == "miss"
        assert (
            no_deadline["result"]["fingerprint"]
            != with_deadline["result"]["fingerprint"]
        )
        assert no_deadline["result"]["cutsize"] == with_deadline["result"]["cutsize"]


class TestEviction:
    def test_lru_eviction_under_small_byte_budget(self, h):
        svc = PartitionService(
            ServiceConfig(port=0, workers=1, cache_max_bytes=2048)
        ).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            first = client.partition(h, engine="fm", settings={"seed": 0})
            for seed in range(1, 8):
                client.partition(h, engine="fm", settings={"seed": seed})
            metrics = client.metrics()
            assert metrics["cache"]["evictions"] > 0
            assert metrics["cache"]["bytes"] <= 2048
            # seed 0 was evicted: re-requesting is a miss, and the
            # recomputed result is identical (determinism).
            again = client.partition(h, engine="fm", settings={"seed": 0})
            assert again["served"]["cache"] == "miss"
            assert again["result"] == first["result"]
        finally:
            svc.stop()

    def test_entry_cap_evicts(self, h):
        svc = PartitionService(
            ServiceConfig(port=0, workers=1, cache_max_entries=2)
        ).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            for seed in range(4):
                client.partition(h, engine="fm", settings={"seed": seed})
            metrics = client.metrics()
            assert metrics["cache"]["entries"] <= 2
            assert metrics["cache"]["evictions"] >= 2
        finally:
            svc.stop()


MALFORMED_BODIES = [
    pytest.param(b"{not json", "invalid JSON", id="syntax"),
    pytest.param(b"[1, 2, 3]", "must be a JSON object", id="non-object"),
    pytest.param(b'{"op": "partition"}', "missing the 'hypergraph' key", id="no-graph"),
    pytest.param(
        b'{"op": "shred", "hypergraph": {}}', "unknown op", id="unknown-op"
    ),
    pytest.param(
        json.dumps(
            {"op": "partition", "engine": "cplex", "hypergraph": {"vertices": [], "edges": []}}
        ).encode(),
        "unknown engine 'cplex'",
        id="unknown-engine",
    ),
    pytest.param(
        json.dumps(
            {
                "op": "partition",
                "hypergraph": {"vertices": [["a", 1], ["b", 1]], "edges": []},
                "settings": {"starts": "many"},
            }
        ).encode(),
        "settings.starts must be an integer",
        id="mistyped-setting",
    ),
    pytest.param(
        json.dumps(
            {
                "op": "partition",
                "hypergraph": {"vertices": [["a", 1], ["b", 1]], "edges": []},
                "settings": {"granularity": 3},
            }
        ).encode(),
        "unknown settings key",
        id="unknown-setting",
    ),
    pytest.param(
        json.dumps(
            {
                "op": "partition",
                "hypergraph": {"vertices": [["a", 1], ["b", 1]], "edges": []},
                "fanout": 2,
            }
        ).encode(),
        "unknown request key",
        id="unknown-top-key",
    ),
    pytest.param(
        json.dumps(
            {
                "op": "partition",
                "placer": "mincut",
                "hypergraph": {"vertices": [["a", 1], ["b", 1]], "edges": []},
            }
        ).encode(),
        "'placer' is a place-op key",
        id="placer-on-partition",
    ),
    pytest.param(
        json.dumps({"op": "partition", "hypergraph": {"vertices": "x"}}).encode(),
        "hypergraph",
        id="malformed-graph",
    ),
    pytest.param(
        json.dumps(
            {
                "op": "partition",
                "hypergraph": {"vertices": [["a", "heavy"]], "edges": []},
            }
        ).encode(),
        "hypergraph",
        id="non-numeric-weight",
    ),
    pytest.param(
        json.dumps(
            {"op": "partition", "hypergraph": {"vertices": [["a", 1]], "edges": []}}
        ).encode(),
        "at least 2",
        id="too-small",
    ),
    *(
        pytest.param(
            json.dumps(
                {
                    "op": "partition",
                    "hypergraph": {"vertices": [["a", 1], entry], "edges": []},
                }
            ).encode(),
            needle,
            id=case,
        )
        for case, entry, needle in [
            ("zero-vertex-weight", ["b", 0], "vertex entry 1: vertex weight must be positive"),
            ("negative-vertex-weight", ["b", -1], "vertex entry 1: vertex weight must be positive"),
            ("nan-vertex-weight", ["b", float("nan")], "vertex entry 1: vertex weight must be finite"),
            ("inf-vertex-weight", ["b", float("inf")], "vertex entry 1: vertex weight must be finite"),
            ("list-label", [["b"], 1], "vertex entry 1: unhashable type: 'list'"),
            ("bad-tuple-label", [{"__tuple__": 5}, 1], "vertex entry 1: 'int' object is not iterable"),
        ]
    ),
    *(
        pytest.param(
            json.dumps(
                {
                    "op": "partition",
                    "hypergraph": {
                        "vertices": [["a", 1], ["b", 1]],
                        "edges": [["n", ["a", "b"], weight]],
                    },
                }
            ).encode(),
            f"edge entry 0: edge weight must be {rule}",
            id=case,
        )
        for case, weight, rule in [
            ("zero-edge-weight", 0, "positive"),
            ("nan-edge-weight", float("nan"), "finite"),
            ("inf-edge-weight", float("inf"), "finite"),
        ]
    ),
]


class TestMalformedRequests:
    @pytest.mark.parametrize("raw,needle", MALFORMED_BODIES)
    def test_structured_400_never_a_traceback(self, service, raw, needle):
        _, client = service
        status, body = _post_raw(client, raw)
        assert status == 400
        decoded = json.loads(body)
        error = decoded["error"]
        assert error["type"] == "RequestError"
        assert needle in error["message"]
        assert error["source"] == "request body"
        text = body.decode()
        assert "Traceback" not in text
        assert 'File "' not in text

    def test_syntax_error_carries_line_context(self, service):
        _, client = service
        status, body = _post_raw(client, b'{\n  "op": "partition",\n  !\n}')
        assert status == 400
        error = json.loads(body)["error"]
        assert error["line"] == 3

    def test_unknown_placer(self, service, h):
        _, client = service
        with pytest.raises(ServiceResponseError) as excinfo:
            client.place(h, placer="dreamplace")
        assert excinfo.value.status == 400
        assert "unknown placer" in excinfo.value.error["message"]

    def test_op_endpoint_mismatch(self, service, h):
        _, client = service
        body = {"op": "place", "hypergraph": hypergraph_to_payload(h)}
        status, raw = _post_raw(client, body, path="/partition")
        assert status == 400
        assert "does not match" in json.loads(raw)["error"]["message"]

    def test_generic_endpoint_accepts_both_ops(self, service, h):
        _, client = service
        status, raw = _post_raw(client, _partition_body(h, engine="fm"), path="/")
        assert status == 200
        assert json.loads(raw)["result"]["op"] == "partition"

    def test_unknown_endpoints_are_structured_404s(self, service):
        _, client = service
        status, raw = client.request_raw("GET", "/nope")
        assert status == 404
        assert json.loads(raw)["error"]["type"] == "NotFound"
        status, raw = client.request_raw("POST", "/shred", b"{}")
        assert status == 404
        assert json.loads(raw)["error"]["type"] == "NotFound"

    def test_malformed_requests_are_counted(self, service):
        _, client = service
        before = client.metrics()["service"]["malformed"]
        _post_raw(client, b"{broken")
        assert client.metrics()["service"]["malformed"] == before + 1

    def test_non_finite_edge_weight_is_refused_before_execution(self, service):
        # A NaN weight used to be accepted, fail verification on every
        # execution and end in a quarantine; it is a 400 now.
        _, client = service
        body = json.dumps(
            {
                "op": "partition",
                "hypergraph": {
                    "vertices": [["a", 1], ["b", 1]],
                    "edges": [["n", ["a", "b"], float("nan")]],
                },
            }
        ).encode()
        for _ in range(4):
            assert _post_raw(client, body)[0] == 400
        metrics = client.metrics()["service"]
        assert metrics["malformed"] == 4
        assert metrics["executions"] == 0
        assert metrics["shed_quarantined"] == 0


class TestObservability:
    def test_cache_and_dedupe_counters_in_metrics_obs(self, service, h):
        _, client = service
        client.partition(h, engine="fm", settings={"seed": 0})
        client.partition(h, engine="fm", settings={"seed": 0})
        counters = client.metrics()["obs"]["counters"]
        assert counters["server.requests"] >= 2
        assert counters["server.cache.hits"] == 1
        assert counters["server.cache.misses"] >= 1
        assert counters["server.cache.insertions"] == 1
        assert counters["server.executions"] == 1

    def test_worker_obs_snapshots_merge_into_daemon_registry(self, service, h):
        _, client = service
        client.partition(h, engine="algorithm1", settings={"starts": 3, "seed": 0})
        counters = client.metrics()["obs"]["counters"]
        # Engine work recorded inside the forked worker must surface in
        # the daemon's merged registry.
        assert counters.get("algorithm1.runs", 0) >= 1, counters

    def test_eviction_counter_in_obs(self, h):
        svc = PartitionService(
            ServiceConfig(port=0, workers=1, cache_max_entries=1)
        ).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            client.partition(h, engine="fm", settings={"seed": 0})
            client.partition(h, engine="fm", settings={"seed": 1})
            counters = client.metrics()["obs"]["counters"]
            assert counters["server.cache.evictions"] >= 1
        finally:
            svc.stop()

    def test_disabled_obs_keeps_always_on_metrics(self, h):
        svc = PartitionService(
            ServiceConfig(port=0, workers=1, obs_enabled=False)
        ).start()
        try:
            client = ServiceClient(url=svc.url, timeout=120.0)
            client.wait_ready(timeout=10.0)
            client.partition(h, engine="fm", settings={"seed": 0})
            client.partition(h, engine="fm", settings={"seed": 0})
            metrics = client.metrics()
            # Zero-cost disabled path: no obs snapshot, nothing recorded
            # in the (inactive) global registry...
            assert metrics["obs"] is None
            assert not obs.is_enabled()
            assert obs.registry().snapshot()["counters"] == {}
            # ...but the always-on tallies still work.
            assert metrics["cache"]["hits"] == 1
            assert metrics["service"]["executions"] == 1
        finally:
            svc.stop()


@pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"),
    reason="AF_UNIX sockets are not available on this platform",
)
class TestUnixSocket:
    def test_serves_over_unix_socket(self, tmp_path, h):
        path = str(tmp_path / "svc.sock")
        svc = PartitionService(
            ServiceConfig(socket_path=path, workers=1)
        ).start()
        try:
            client = ServiceClient(socket_path=path, timeout=120.0)
            health = client.wait_ready(timeout=10.0)
            assert health["transport"] == "unix"
            response = client.partition(h, engine="fm")
            assert response["served"]["cache"] == "miss"
            assert client.partition(h, engine="fm")["served"]["cache"] == "hit"
        finally:
            svc.stop()

    def test_stale_socket_file_is_reclaimed(self, tmp_path, h):
        path = str(tmp_path / "svc.sock")
        first = PartitionService(ServiceConfig(socket_path=path, workers=1)).start()
        # Simulate a crashed daemon: the listener is gone but the socket
        # file stays behind.  shutdown() is joined before close so no
        # serve-loop select() still pins the kernel socket when the
        # second daemon probes it.
        first._httpd.shutdown()
        first._httpd.server_close()
        first._httpd = None  # skip graceful stop(); file stays behind
        second = PartitionService(ServiceConfig(socket_path=path, workers=1)).start()
        try:
            client = ServiceClient(socket_path=path, timeout=120.0)
            client.wait_ready(timeout=10.0)
            assert client.healthz()["status"] == "ok"
        finally:
            second.stop()
            first.broker.stop()

    def test_live_socket_is_not_stolen(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        svc = PartitionService(ServiceConfig(socket_path=path, workers=1)).start()
        try:
            with pytest.raises(ServiceError, match="live server"):
                PartitionService(ServiceConfig(socket_path=path, workers=1)).start()
        finally:
            svc.stop()


class TestPersistenceVerifyFailover:
    """Tier-1 halves of the crash-recovery PR: the in-process state
    round trip, the boundary integrity gate, and client failover
    mechanics — the SIGKILL/subprocess halves live in
    ``tests/test_server_recovery.py`` (chaos-marked)."""

    @pytest.fixture(autouse=True)
    def _no_faults(self):
        faults.configure(None)
        yield
        faults.configure(None)

    def test_healthz_reports_identity(self, service):
        _, client = service
        health = client.healthz()
        assert health["pid"] == os.getpid()  # in-process daemon
        assert isinstance(health["version"], str) and health["version"]
        # started_at is absolute wall time consistent with the uptime.
        assert 0 < health["started_at"] <= time.time()
        assert time.time() - health["started_at"] >= health["uptime_seconds"] - 1.0

    def test_metrics_persist_is_none_without_state_dir(self, service):
        _, client = service
        assert client.metrics()["persist"] is None

    def test_state_round_trips_across_a_graceful_restart(self, tmp_path, h):
        cfg = dict(port=0, workers=1, state_dir=str(tmp_path))
        svc = PartitionService(ServiceConfig(**cfg)).start()
        client = ServiceClient(url=svc.url, timeout=60.0)
        client.wait_ready(timeout=10.0)
        try:
            cold = client.partition(h, engine="fm", settings={"seed": 3})
            assert cold["served"]["cache"] == "miss"
            assert client.metrics()["persist"]["records"] >= 1
        finally:
            svc.stop()

        svc = PartitionService(ServiceConfig(**cfg)).start()
        client = ServiceClient(url=svc.url, timeout=60.0)
        client.wait_ready(timeout=10.0)
        try:
            assert client.metrics()["persist"]["rehydrated_cache"] == 1
            warm = client.partition(h, engine="fm", settings={"seed": 3})
            assert warm["served"]["cache"] == "hit"
            assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
                cold["result"], sort_keys=True
            )
        finally:
            svc.stop()

    def test_verify_gate_turns_corruption_into_a_typed_500(self, service, h):
        svc, client = service
        faults.configure("server.verify=error:1", seed=5)
        with pytest.raises(ServiceResponseError) as excinfo:
            client.partition(h, engine="fm", settings={"seed": 0})
        assert excinfo.value.status == 500
        assert excinfo.value.error_type == "IntegrityError"
        metrics = client.metrics()
        assert metrics["service"]["verify_failures"] == 1
        assert metrics["cache"]["insertions"] == 0

        # Disarmed, the same request executes and serves clean.
        faults.configure(None)
        response = client.partition(h, engine="fm", settings={"seed": 0})
        assert response["served"]["cache"] == "miss"

    def test_no_verify_serves_the_corrupt_result(self, h):
        # What --no-verify buys (and costs): the gate is off, so the
        # damaged body sails through as a 200 — documented escape
        # hatch, not a recommendation.
        svc = PartitionService(
            ServiceConfig(port=0, workers=1, verify_results=False)
        ).start()
        client = ServiceClient(url=svc.url, timeout=60.0)
        client.wait_ready(timeout=10.0)
        try:
            faults.configure("server.verify=error:1", seed=5)
            response = client.partition(h, engine="fm", settings={"seed": 0})
            assert response["served"]["cache"] == "miss"
            assert client.metrics()["service"]["verify_failures"] == 0
        finally:
            faults.configure(None)
            svc.stop()

    def test_client_endpoint_validation(self):
        with pytest.raises(ServiceClientError):
            ServiceClient(endpoints=[])
        with pytest.raises(ServiceClientError):
            ServiceClient(url="http://x:1", endpoints=["http://y:2"])

    def test_refused_connection_fails_over_in_process(self, service, h):
        svc, _ = service
        # Endpoint one is a port nothing listens on; the client must
        # rotate to the live sibling instead of surfacing the refusal.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        client = ServiceClient(
            endpoints=[dead, svc.url], timeout=60.0, max_retries=1
        )
        response = client.partition(h, engine="fm", settings={"seed": 0})
        assert response["served"]["cache"] == "miss"
        assert client.failovers == 1
        assert client.active_endpoint == svc.url


class TestInterleavingProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        plan=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=2, max_size=8
        )
    )
    def test_any_interleaving_matches_sequential_cold_runs(self, service, plan):
        """Concurrent duplicate/distinct mixes == sequential cold runs.

        ``plan`` is a list of (graph index, seed) request specs, fired
        concurrently in arbitrary interleavings.  Whatever mix of cache
        hits, coalesced waits, and fresh executions results, every
        response must carry the cut a sequential cold run produces.
        """
        _, client = service
        graphs = [_graph(edges) for edges in EDGESETS]
        expected = {
            spec: run_engine("fm", graphs[spec[0]], seed=spec[1], starts=10)[0].cutsize
            for spec in set(plan)
        }
        outcomes: list[tuple[tuple[int, int], int]] = []
        errors: list[Exception] = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(plan))

        def fire(spec):
            try:
                barrier.wait(timeout=10)
                response = client.partition(
                    graphs[spec[0]], engine="fm", settings={"seed": spec[1]}
                )
                with lock:
                    outcomes.append((spec, response["result"]["cutsize"]))
            except Exception as exc:
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=fire, args=(spec,)) for spec in plan]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(outcomes) == len(plan)
        for spec, cutsize in outcomes:
            assert cutsize == expected[spec]
