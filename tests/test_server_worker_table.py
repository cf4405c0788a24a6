"""Each daemon worker keeps the frozen hypergraphs it unpickled, keyed by member text.

A request whose ``"hypergraph"`` member text the daemon has parsed
carries the hypergraph table's key and pickle to its pool worker, and
the worker keeps a bounded LRU from that key to the frozen hypergraph
(:mod:`repro.server.worker_table`).  Covered, against live one-worker
daemons:

* re-sending one hypergraph text under new seeds answers byte for byte
  as a fresh daemon does, for every engine and a place request;
* another spelling of the same hypergraph (same digest, another vertex
  order) gets the answer a fresh daemon gives for that spelling;
* ``/metrics`` counts worker-table hits and misses, with obs on and off;
* a byte budget below one entry's charge keeps the table empty and the
  answers unchanged;
* a worker killed through the ``server.request`` fault site is replaced
  by one with an empty table, and the next request is still right;
* the daemon pickles no ``Hypergraph`` for a worker.

And without a daemon: the table keeps within its entry, byte and memory
budgets, a forked copy starts empty, and an entry's charge is at least
the traced allocation of unpickling and preparing random and std-cell
hypergraphs of 150-10k modules.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import tracemalloc
from unittest import mock

import pytest

from repro import obs
from repro.core.digest import hypergraph_digest
from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES, run_engine
from repro.generators import clustered_netlist, random_hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.runtime import faults
from repro.server import PartitionService, ServiceClient, ServiceConfig
from repro.server.worker_table import WorkerTable, entry_charge

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.configure(None)
    obs.disable()
    obs.registry().clear()
    yield
    faults.configure(None)
    obs.disable()
    obs.registry().clear()


def _hypergraph() -> Hypergraph:
    return random_hypergraph(60, 90, max_edge_size=5, seed=3, connect=True)


def _body(payload, engine: str = "algorithm1", **settings) -> bytes:
    return json.dumps(
        {"op": "partition", "engine": engine, "hypergraph": payload, "settings": settings},
        separators=(",", ":"),
    ).encode()


def _place(payload, seed: int) -> bytes:
    body = {"op": "place", "placer": "mincut", "hypergraph": payload, "settings": {"seed": seed}}
    return json.dumps(body, separators=(",", ":")).encode()


def _daemon(**config) -> tuple[PartitionService, ServiceClient]:
    svc = PartitionService(ServiceConfig(port=0, workers=1, **config)).start()
    client = ServiceClient(url=svc.url, timeout=120.0)
    client.wait_ready(timeout=10.0)
    return svc, client


def _stop(svc: PartitionService, client: ServiceClient) -> None:
    client.close()
    svc.stop()


def _result(raw: bytes) -> bytes:
    """The ``result`` section of a response, as sent."""
    return raw.split(b',"served":')[0]


def _fresh(path: str, raw: bytes) -> bytes:
    svc, client = _daemon()
    try:
        status, reply = client.request_raw("POST", path, raw)
    finally:
        _stop(svc, client)
    assert status == 200, reply
    return _result(reply)


def _served(client: ServiceClient, path: str, raw: bytes) -> bytes:
    status, reply = client.request_raw("POST", path, raw)
    assert status == 200, reply
    assert json.loads(reply)["served"]["cache"] == "miss"
    return _result(reply)


def _tallies(client: ServiceClient) -> tuple[int, int]:
    service = client.metrics()["service"]
    return service["worker_hypergraph_hits"], service["worker_hypergraph_misses"]


class TestLiveDaemon:
    def test_resent_text_answers_as_a_fresh_daemon_for_every_engine(self):
        payload = hypergraph_to_payload(_hypergraph())
        requests = [
            ("/partition", _body(payload, engine=engine, seed=5, starts=2)) for engine in ALL_ENGINES
        ] + [("/place", _place(payload, seed=5))]
        expected = [_fresh(path, raw) for path, raw in requests]
        svc, client = _daemon()
        try:
            _served(client, "/partition", _body(payload, seed=99))
            for (path, raw), want in zip(requests, expected):
                assert _served(client, path, raw) == want, path
            hits, misses = _tallies(client)
        finally:
            _stop(svc, client)
        assert (hits, misses) == (len(requests), 1)

    def test_another_spelling_gets_its_own_answer(self):
        h = _hypergraph()
        payload = hypergraph_to_payload(h)
        turned = {"vertices": payload["vertices"][::-1], "edges": payload["edges"][::-1]}
        raw, turned_raw = _body(payload, seed=2, starts=3), _body(turned, seed=2, starts=3)
        want = _fresh("/partition", turned_raw)
        # The spellings share a digest but not an answer, so a table keyed
        # by the digest would serve the first spelling's cut here.
        assert json.loads(want + b"}")["result"]["digest"] == hypergraph_digest(h)
        assert want != _fresh("/partition", raw)
        svc, client = _daemon()
        try:
            _served(client, "/partition", _body(payload, seed=1, starts=3))
            assert _served(client, "/partition", turned_raw) == want
            assert _tallies(client) == (0, 2)
        finally:
            _stop(svc, client)

    @pytest.mark.parametrize("obs_enabled", [True, False])
    def test_metrics_count_hits_and_misses(self, obs_enabled):
        payload = hypergraph_to_payload(_hypergraph())
        other = hypergraph_to_payload(clustered_netlist(40, 64, seed=2))
        svc, client = _daemon(obs_enabled=obs_enabled)
        try:
            assert _tallies(client) == (0, 0)
            for seed in range(3):
                _served(client, "/partition", _body(payload, seed=seed))
            _served(client, "/partition", _body(other, engine="fm", seed=0))
            metrics = client.metrics()
        finally:
            _stop(svc, client)
        service = metrics["service"]
        assert (service["worker_hypergraph_hits"], service["worker_hypergraph_misses"]) == (2, 2)
        if obs_enabled:
            counters = metrics["obs"]["counters"]
            assert counters["server.worker.hypergraph_hits"] == 2
            assert counters["server.worker.hypergraph_misses"] == 2
        else:
            assert metrics["obs"] is None

    def test_a_byte_budget_below_one_charge_keeps_nothing(self):
        h = _hypergraph()
        payload = hypergraph_to_payload(h)
        budget = 4096
        assert entry_charge(pickle.dumps(h, pickle.HIGHEST_PROTOCOL), h) > budget
        bodies = [_body(payload, seed=seed, starts=2) for seed in range(3)]
        expected = [_fresh("/partition", raw) for raw in bodies]
        svc, client = _daemon(cache_max_bytes=budget)
        try:
            for raw, want in zip(bodies, expected):
                assert _served(client, "/partition", raw) == want
            assert _tallies(client) == (0, 3)
        finally:
            _stop(svc, client)

    def test_a_killed_worker_is_replaced_with_an_empty_table(self):
        payload = hypergraph_to_payload(_hypergraph())
        last = _body(payload, seed=3, starts=2)
        want = _fresh("/partition", last)
        svc, client = _daemon(max_retries=0)
        try:
            _served(client, "/partition", _body(payload, seed=1))
            _served(client, "/partition", _body(payload, seed=2))
            assert _tallies(client) == (1, 1)
            faults.configure("server.request=kill:1", seed=5)
            status, reply = client.request_raw("POST", "/partition", _body(payload, seed=4))
            assert status == 500 and json.loads(reply)["error"]["type"] == "WorkerCrashed"
            faults.configure(None)
            assert _served(client, "/partition", last) == want
            assert _tallies(client) == (1, 2)
        finally:
            _stop(svc, client)

    def test_the_daemon_pickles_no_hypergraph_for_a_worker(self):
        payload = hypergraph_to_payload(_hypergraph())
        daemon_pid = os.getpid()
        pickled = []
        getstate = Hypergraph.__getstate__

        def spy(self):
            if os.getpid() == daemon_pid:
                pickled.append(self)
            return getstate(self)

        with mock.patch.object(Hypergraph, "__getstate__", spy):
            svc, client = _daemon()
            try:
                for seed, engine in enumerate(("algorithm1", "fm", "algorithm1", "flow")):
                    _served(client, "/partition", _body(payload, engine=engine, seed=seed))
                hits = _tallies(client)[0]
            finally:
                _stop(svc, client)
        # One pickle: the hypergraph table's, when the text was first parsed.
        assert len(pickled) == 1 and hits == 3


# ----------------------------------------------------------------------
# The table alone
# ----------------------------------------------------------------------


def _entries(count: int) -> list[tuple[bytes, bytes]]:
    out = []
    for i in range(count):
        h = random_hypergraph(20 + i, 30 + i, seed=i, connect=True)
        out.append((f"k{i}".encode(), pickle.dumps(h, pickle.HIGHEST_PROTOCOL)))
    return out


def _fill(table: WorkerTable, entries) -> list[bool]:
    hits = []
    for key, blob in entries:
        h, hit = table.get(key, blob)
        run_engine("algorithm1", h, seed=0, starts=1)
        table.keep(key, blob, h)
        hits.append(hit)
        stats = table.stats()
        assert stats["entries"] <= table.max_entries and stats["bytes"] <= stats["budget"]
    return hits


class TestTable:
    def test_a_hit_returns_the_kept_frozen_hypergraph(self):
        (key, blob), = _entries(1)
        table = WorkerTable(max_entries=4, max_bytes=64 << 20)
        h, hit = table.get(key, blob)
        assert not hit and h.frozen and h == pickle.loads(blob)
        assert table.get(key, blob) == (h, False)  # not kept before keep()
        table.keep(key, blob, h)
        assert table.get(key, blob)[0] is h and table.get(key, blob)[1]

    def test_kept_within_the_entry_budget_least_recent_first(self):
        entries = _entries(6)
        table = WorkerTable(max_entries=3, max_bytes=64 << 20)
        assert _fill(table, entries) == [False] * 6
        assert table.stats()["entries"] == 3
        assert _fill(table, entries[3:]) == [True] * 3

    def test_kept_within_the_byte_budget(self):
        entries = _entries(6)
        charges = []
        for key, blob in entries:
            h = pickle.loads(blob).freeze()
            run_engine("algorithm1", h, seed=0, starts=1)
            charges.append(entry_charge(blob, h))
        table = WorkerTable(max_entries=100, max_bytes=max(charges) * 2)
        _fill(table, entries)
        stats = table.stats()
        assert 0 < stats["bytes"] <= max(charges) * 2 and stats["entries"] < 6

    def test_a_memory_budget_bounds_the_table(self):
        entries = _entries(4)
        table = WorkerTable(max_entries=100, max_bytes=64 << 20, memory_limit_bytes=1)
        assert _fill(table, entries) == [False] * 4
        assert table.stats()["entries"] == 0

    def test_a_forked_copy_starts_empty(self):
        entries = _entries(2)
        table = WorkerTable(max_entries=4, max_bytes=64 << 20)
        _fill(table, entries)
        assert table.stats()["entries"] == 2
        with mock.patch.object(os, "getpid", return_value=os.getpid() + 1):
            assert table.stats()["entries"] == 0
            assert not table.get(*entries[0])[1]


def _hub(modules: int, nets: int) -> Hypergraph:
    """Five modules on every net: a dual far denser than its pickle."""
    rng = random.Random(1)
    edges = [[k % 5, 5 + rng.randrange(modules)] for k in range(nets)]
    return Hypergraph(vertices=range(modules + 5), edges=edges)


_CHARGED = [
    ("random", 150), ("random", 2000), ("random", 10000),
    ("std_cell", 150), ("std_cell", 2000), ("std_cell", 10000),
    ("hub", 300),
]


def _instance(kind: str, modules: int) -> Hypergraph:
    signals = modules * 8 // 5
    if kind == "random":
        return random_hypergraph(modules, signals, seed=modules, connect=True)
    if kind == "std_cell":
        return clustered_netlist(modules, signals, technology="std_cell", seed=modules)
    return _hub(modules, 2 * modules)


class TestCharge:
    @pytest.mark.parametrize("kind,modules", _CHARGED, ids=[f"{k}{m}" for k, m in _CHARGED])
    def test_charge_covers_the_traced_allocation(self, kind, modules):
        blob = pickle.dumps(_instance(kind, modules), pickle.HIGHEST_PROTOCOL)
        engines = ("algorithm1", "flow") if modules <= 2000 else ("algorithm1",)
        warm = _instance("random", 30).freeze()
        for engine in engines:  # module imports and first-use caches are no entry's
            run_engine(engine, warm, seed=0, starts=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = pickle.loads(blob).freeze()
            for engine in engines:
                run_engine(engine, h, seed=0, starts=1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert entry_charge(blob, h) >= held > 0
