"""The daemon's hypergraph table: a re-sent hypergraph is neither built nor digested.

``parse_request`` decodes a body member by member
(:func:`repro.server.protocol.decode_members`) and keys the cache's
hypergraph table by the SHA-256 of the ``"hypergraph"`` member's text.
Covered:

* the member walk decodes exactly what ``json.loads`` decodes (a
  hypothesis property over duplicate keys, odd whitespace, strings
  holding ``"hypergraph"``, non-object bodies, trailing data and
  ``NaN``), and ``parse_request`` gives every body the same answer or
  the same typed error with the table as without it;
* a table hit is a private ``Hypergraph`` equal to a fresh build, in the
  same vertex and edge order, with the same digest, taken without
  building or digesting;
* the same content in another order is another key, and is built;
* only requests that pass every check enter, the table keeps within both
  cache budgets, and ``clear()`` empties it;
* against live daemons: every engine and a place request answer byte for
  byte as a fresh daemon does, ``/metrics`` reports the table, and a
  restart from a state directory starts with it empty.
"""

from __future__ import annotations

import json
import math
import pickle
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.digest import hypergraph_digest
from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES
from repro.io.json_io import hypergraph_from_payload, hypergraph_to_payload
from repro.server import PartitionService, ServiceClient, ServiceConfig, protocol
from repro.server.cache import ResultCache
from repro.server.protocol import RequestError, decode_members, parse_request

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")

# Int labels 8 apart share a bucket of a small set's hash table, so these
# member frozensets iterate in another order after a pickle round trip:
# a table hit adds one more round trip to the one every request makes on
# its way to a daemon worker.
PICKLE_REORDERED = [
    (3, 11), (11, 19, 3), (19, 27), (27, 35, 43), (43, 51), (51, 59, 3), (59, 67), (67, 75, 11)
]


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.disable()
    obs.registry().clear()
    yield
    obs.disable()
    obs.registry().clear()


def _hypergraph() -> Hypergraph:
    h = Hypergraph(edges={f"n{i}": list(pins) for i, pins in enumerate(PICKLE_REORDERED)})
    h.add_vertex("extra", weight=2.5)
    h.add_edge(["extra", 3], name=("t", 1), weight=3.0)
    return h


def _body(payload, engine: str = "fm", **settings_) -> bytes:
    return json.dumps(
        {"op": "partition", "engine": engine, "hypergraph": payload, "settings": settings_},
        separators=(",", ":"),
    ).encode()


def _same(a, b) -> bool:
    """Equal values with equal key order, NaN equal to NaN."""
    return json.dumps(a) == json.dumps(b)


# ----------------------------------------------------------------------
# The member walk
# ----------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["hypergraph", '"hypergraph":', "{", "}", ",", ":", "\\"])
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_keys = st.sampled_from(["op", "engine", "hypergraph", "settings", "x\"hypergraph\""]) | st.text(
    max_size=5
)
# JSON whitespace, and two characters json.loads refuses between tokens.
_space = st.text(alphabet=" \t\n\r", max_size=3) | st.sampled_from(["\x0c", "\u00a0"])
_tails = st.sampled_from(["", " ", "\n", "x", "}", "{}", ",", ' "hypergraph"', "NaN"])


@st.composite
def _bodies(draw) -> str:
    if draw(st.integers(0, 9)) == 0:  # a non-object body
        return draw(_space) + json.dumps(draw(_values)) + draw(_tails)
    members = draw(st.lists(st.tuples(_keys, _values), max_size=5))
    parts = [
        draw(_space) + json.dumps(key) + draw(_space) + ":" + draw(_space)
        + json.dumps(value) + draw(_space)
        for key, value in members
    ]
    if members and draw(st.integers(0, 7)) == 0:
        parts.append("")  # a trailing comma
    return draw(_space) + "{" + draw(_space) + ",".join(parts) + "}" + draw(_tails)


class TestMemberWalk:
    @settings(max_examples=400, deadline=None)
    @given(text=_bodies())
    def test_walk_decodes_what_json_loads_decodes(self, text):
        decoded = decode_members(text)
        try:
            expected = json.loads(text)
        except json.JSONDecodeError:
            assert decoded is None
            return
        if not isinstance(expected, dict):
            assert decoded is None
            return
        assert decoded is not None, text
        payload, spans = decoded
        assert _same(payload, expected)
        assert list(spans) == list(payload)
        for key, (start, end) in spans.items():
            assert _same(json.loads(text[start:end]), payload[key])

    def test_repeated_keys_keep_the_first_position_and_the_last_value(self):
        text = '{"a": 1, "hypergraph": {"x": 1}, "a": NaN, "hypergraph" :[2] }'
        payload, spans = decode_members(text)
        assert list(payload) == ["a", "hypergraph"] == list(json.loads(text))
        assert math.isnan(payload["a"]) and payload["hypergraph"] == [2]
        assert text[slice(*spans["hypergraph"])] == "[2]"

    @pytest.mark.parametrize(
        "text",
        ["", "[]", '"hypergraph"', "{", '{"a":1,}', '{"a" 1}', '{"a":1}x', "\ufeff{}", '{"a":1}\x0c'],
    )
    def test_other_text_is_left_to_json_loads(self, text):
        assert decode_members(text) is None


def _outcome(raw: bytes, **kwargs):
    try:
        request = parse_request(raw, **kwargs)
    except RequestError as exc:
        return ("error", exc.message, exc.source, exc.line)
    h = request.hypergraph
    return (
        request.op, request.engine, request.settings, request.digest, request.fingerprint,
        h.vertices, h.edge_names, [h.edge_members(e) for e in h.edge_names],
        [h.vertex_weight(v) for v in h.vertices], [h.edge_weight(e) for e in h.edge_names],
    )


_good = hypergraph_to_payload(_hypergraph())
_payloads = st.sampled_from([
    _good,
    {"edges": _good["edges"], "vertices": _good["vertices"]},  # another spelling
    {"vertices": [[0, 1.0]], "edges": [[None, [0], 1.0]]},  # one vertex
    {"vertices": [[0, "w"]], "edges": []},  # a malformed entry
    [1, 2],
])
_members = st.sampled_from([
    ("op", "partition"), ("op", "place"), ("op", "merge"), ("engine", "fm"),
    ("engine", "kl"), ("engine", "nope"), ("placer", "mincut"), ("settings", {"seed": 1}),
    ("settings", {"seed": 2, "starts": 3}), ("settings", {"seed": "x"}), ("extra", 1),
]) | _payloads.map(lambda payload: ("hypergraph", payload))


@st.composite
def _requests(draw) -> bytes:
    members = draw(st.lists(_members, min_size=1, max_size=6))
    space = draw(st.sampled_from(["", " ", "\n  "]))
    text = "{" + ",".join(f"{space}{json.dumps(k)}:{space}{json.dumps(v)}" for k, v in members)
    return (text + "}" + draw(st.sampled_from(["", "\n", " x"]))).encode()


class TestParseRequest:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raws=st.lists(_requests(), min_size=1, max_size=4))
    def test_answers_and_errors_match_a_json_loads_parse(self, raws):
        # One table across the requests, so later ones hit what earlier
        # ones built.
        table = ResultCache()
        for raw in raws:
            for expected_op in (None, "partition"):
                with mock.patch.object(protocol, "decode_members", return_value=None):
                    expected = _outcome(raw, expected_op=expected_op)
                assert _outcome(raw, expected_op=expected_op, hypergraphs=table) == expected

    def test_a_hit_is_a_private_copy_of_a_fresh_build(self):
        table = ResultCache()
        payload = hypergraph_to_payload(_hypergraph())
        fresh = hypergraph_from_payload(payload)
        first = parse_request(_body(payload, seed=1), hypergraphs=table)
        with mock.patch.object(protocol, "hypergraph_from_payload") as build, mock.patch.object(
            protocol, "hypergraph_digest"
        ) as digest:
            second = parse_request(_body(payload, engine="kl", seed=2), hypergraphs=table)
            third = parse_request(_body(payload, starts=3, refine="fm"), hypergraphs=table)
        assert not build.called and not digest.called
        assert table.stats()["hypergraph_hits"] == 2
        for request in (second, third):
            h = request.hypergraph
            assert h == fresh
            assert h.vertices == fresh.vertices and h.edge_names == fresh.edge_names
            assert request.digest == hypergraph_digest(fresh) == first.digest
        assert len({id(first.hypergraph), id(second.hypergraph), id(third.hypergraph)}) == 3
        second.hypergraph.add_vertex("late")
        assert parse_request(_body(payload, seed=4), hypergraphs=table).hypergraph == fresh

    def test_the_same_content_in_another_order_is_built(self):
        table = ResultCache()
        payload = hypergraph_to_payload(_hypergraph())
        turned = {"vertices": payload["vertices"][::-1], "edges": payload["edges"][::-1]}
        a = parse_request(_body(payload), hypergraphs=table)
        b = parse_request(_body(turned), hypergraphs=table)
        assert a.digest == b.digest and a.hypergraph == b.hypergraph
        assert b.hypergraph.vertices == list(hypergraph_from_payload(turned).vertices)
        stats = table.stats()
        assert (stats["hypergraphs"], stats["hypergraph_hits"]) == (2, 0)

    @pytest.mark.parametrize(
        "raw",
        [
            _body({"vertices": [[0, 1.0]], "edges": []}),
            _body({"vertices": [[0, -1.0], [1, 1.0]], "edges": []}),
            _body(hypergraph_to_payload(_hypergraph()), seed="x"),
            _body(hypergraph_to_payload(_hypergraph()), engine="nope"),
            b'{"op":"partition","hypergraph":{"vertices":[[0,1],[1,1]],"edges":[]},"x":1}',
        ],
    )
    def test_only_requests_that_pass_every_check_enter(self, raw):
        table = ResultCache()
        with pytest.raises(RequestError):
            parse_request(raw, hypergraphs=table)
        assert table.stats()["hypergraphs"] == 0


class TestTableBounds:
    def _fill(self, table: ResultCache, count: int) -> list[int]:
        sizes = []
        for i in range(count):
            h = Hypergraph(edges=[[i, i + 1 + k] for k in range(i % 5 + 1)])
            parse_request(_body(hypergraph_to_payload(h)), hypergraphs=table)
            sizes.append(len(pickle.dumps(h, pickle.HIGHEST_PROTOCOL)))
        return sizes

    def test_kept_within_the_entry_budget_least_recent_first(self):
        table = ResultCache(max_entries=3)
        self._fill(table, 10)
        assert table.stats()["hypergraphs"] == 3
        # The three newest are kept: re-sending the oldest of them hits.
        h = Hypergraph(edges=[[7, 8 + k] for k in range(7 % 5 + 1)])
        parse_request(_body(hypergraph_to_payload(h), seed=9), hypergraphs=table)
        assert table.stats()["hypergraph_hits"] == 1

    def test_kept_within_the_byte_budget(self):
        table = ResultCache(max_bytes=1200)
        sizes = self._fill(table, 12)
        stats = table.stats()
        assert 0 < stats["hypergraph_bytes"] <= 1200
        assert stats["hypergraphs"] < 12
        assert max(sizes) <= 1200

    def test_a_pickle_over_the_byte_budget_is_not_kept(self):
        table = ResultCache(max_bytes=64)
        self._fill(table, 2)
        assert (table.stats()["hypergraphs"], table.stats()["hypergraph_bytes"]) == (0, 0)

    def test_clear_empties_the_table(self):
        table = ResultCache()
        self._fill(table, 3)
        table.clear()
        assert (table.stats()["hypergraphs"], table.stats()["hypergraph_bytes"]) == (0, 0)
        self._fill(table, 1)
        assert table.stats()["hypergraph_hits"] == 0

    def test_hits_count_in_obs(self):
        table = ResultCache()
        payload = hypergraph_to_payload(_hypergraph())
        with obs.enabled(clear=True) as registry:
            for seed in range(3):
                parse_request(_body(payload, seed=seed), hypergraphs=table)
        assert registry.counter("server.cache.hypergraph_hits") == 2


# ----------------------------------------------------------------------
# Live daemons
# ----------------------------------------------------------------------


def _daemon(**config) -> tuple[PartitionService, ServiceClient]:
    svc = PartitionService(ServiceConfig(port=0, workers=1, **config)).start()
    client = ServiceClient(url=svc.url, timeout=120.0)
    client.wait_ready(timeout=10.0)
    return svc, client


def _stop(svc: PartitionService, client: ServiceClient) -> None:
    client.close()
    svc.stop()


def _result_section(raw: bytes) -> bytes:
    return raw.split(b',"served":')[0]


def _requests_of(payload) -> list[tuple[str, bytes]]:
    bodies = [("/partition", _body(payload, engine=engine, seed=5, starts=2)) for engine in ALL_ENGINES]
    place = {"op": "place", "placer": "mincut", "hypergraph": payload, "settings": {"seed": 5}}
    return bodies + [("/place", json.dumps(place, separators=(",", ":")).encode())]


class TestDaemon:
    def test_every_engine_and_place_answer_as_a_fresh_daemon_does(self):
        payload = hypergraph_to_payload(_hypergraph())
        warm, warm_client = _daemon()
        try:
            warm_client.request_raw("POST", "/partition", _body(payload, seed=99))
            for path, raw in _requests_of(payload):
                cold, cold_client = _daemon()
                try:
                    cold_status, cold_raw = cold_client.request_raw("POST", path, raw)
                    assert cold_client.metrics()["cache"]["hypergraph_hits"] == 0
                finally:
                    _stop(cold, cold_client)
                status, warm_raw = warm_client.request_raw("POST", path, raw)
                assert status == cold_status == 200, warm_raw
                assert json.loads(warm_raw)["served"]["cache"] == "miss"
                assert _result_section(warm_raw) == _result_section(cold_raw), path
            cache = warm_client.metrics()["cache"]
        finally:
            _stop(warm, warm_client)
        assert cache["hypergraph_hits"] == len(ALL_ENGINES) + 1
        assert cache["hypergraphs"] == 1

    def test_metrics_report_the_table(self):
        payload = hypergraph_to_payload(_hypergraph())
        svc, client = _daemon()
        try:
            empty = client.metrics()["cache"]
            for seed in range(3):
                client.request_raw("POST", "/partition", _body(payload, seed=seed))
            metrics = client.metrics()
        finally:
            _stop(svc, client)
        assert (empty["hypergraphs"], empty["hypergraph_bytes"], empty["hypergraph_hits"]) == (0, 0, 0)
        cache = metrics["cache"]
        assert cache["hypergraphs"] == 1 and cache["hypergraph_hits"] == 2
        local = ResultCache()
        parse_request(_body(payload), hypergraphs=local)
        assert cache["hypergraph_bytes"] == local.stats()["hypergraph_bytes"] > 0
        assert metrics["obs"]["counters"]["server.cache.hypergraph_hits"] == 2

    def test_a_restart_from_a_state_dir_starts_with_an_empty_table(self, tmp_path):
        payload = hypergraph_to_payload(_hypergraph())
        svc, client = _daemon(state_dir=str(tmp_path))
        try:
            client.request_raw("POST", "/partition", _body(payload, seed=1))
        finally:
            _stop(svc, client)
        svc, client = _daemon(state_dir=str(tmp_path))
        try:
            rehydrated = client.metrics()["cache"]
            _, raw = client.request_raw("POST", "/partition", _body(payload, seed=1))
            assert json.loads(raw)["served"]["cache"] == "hit"
            client.request_raw("POST", "/partition", _body(payload, seed=2))
            client.request_raw("POST", "/partition", _body(payload, seed=3))
            after = client.metrics()["cache"]
        finally:
            _stop(svc, client)
        assert rehydrated["entries"] == 1 and rehydrated["hypergraphs"] == 0
        assert (after["hypergraphs"], after["hypergraph_hits"]) == (1, 2)
