"""The daemon's hypergraph table: a re-sent hypergraph costs one hash of its member text.

``parse_request`` decodes a body member by member
(:func:`repro.server.protocol.decode_members`) and keys the cache's
hypergraph table by the SHA-256 of the ``"hypergraph"`` member's text;
a member the table holds is found by its length and hash and skipped
without being decoded.  Covered:

* the member walk decodes exactly what ``json.loads`` decodes (a
  hypothesis property over duplicate keys, odd whitespace, strings
  holding ``"hypergraph"``, non-object bodies, trailing data and
  ``NaN``), and ``parse_request`` gives every body the same answer or
  the same typed error as a ``json.loads`` parse against an empty
  table, table hits included: a known member followed by malformed
  text, repeated ``"hypergraph"`` keys, and an entry evicted between
  the skip and its use;
* a table hit builds, digests and unpickles nothing and carries the
  entry the first sighting made; its pickle unpickles to a private
  ``Hypergraph`` equal to a fresh build, in the same vertex and edge
  order, with the same digest;
* the same content in another order is another key, and is built;
* only requests that pass every check enter, a refused request leaves
  the hit count and the LRU order as they were, the table keeps its
  pickles and verification views within both cache budgets, and
  ``clear()`` empties it;
* the in-process worker runs a table hit and a fresh build alike,
  through its worker table;
* against live daemons: every engine and a place request answer byte for
  byte as a fresh daemon does, a re-sent hypergraph is not decoded,
  built or unpickled, ``/metrics`` reports the table, and a restart
  from a state directory starts with it empty.
"""

from __future__ import annotations

import hashlib
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
from repro.metrics import verify
from repro.metrics.verify import VerificationView
from repro.server import PartitionService, ServiceClient, ServiceConfig, app, protocol
from repro.server.cache import ResultCache
from repro.server.protocol import KnownMember, RequestError, decode_members, parse_request
from repro.server.worker_table import WorkerTable

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


def _unpickled(request) -> Hypergraph:
    return pickle.loads(request.entry.blob)


def _described(request) -> tuple:
    h = _unpickled(request)
    return (
        request.op, request.engine, request.settings, request.digest, request.fingerprint,
        h.vertices, h.edge_names, [h.edge_members(e) for e in h.edge_names],
        [h.vertex_weight(v) for v in h.vertices], [h.edge_weight(e) for e in h.edge_names],
    )


def _outcome(raw: bytes, **kwargs):
    try:
        request = parse_request(raw, **kwargs)
    except RequestError as exc:
        return ("error", exc.message, exc.source, exc.line)
    return _described(request)


def _loaded_members(text: str, *_table):
    """``decode_members`` answered by ``json.loads``: its payload, the walk's spans, no skip."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    return payload, decode_members(text)[1]


def _expected(raw: bytes, **kwargs):
    """``_outcome`` of a ``json.loads`` parse against an empty table."""
    with mock.patch.object(protocol, "decode_members", side_effect=_loaded_members):
        return _outcome(raw, hypergraphs=ResultCache(), **kwargs)


def _member_key(payload) -> bytes:
    """The table key of ``payload`` sent as ``_body`` sends it."""
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).digest()


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


_SMALL = {"vertices": [[0, 1.0], [1, 2.0]], "edges": [["e", [0, 1], 1.0]]}
_KNOWN = [_good, {"edges": _good["edges"], "vertices": _good["vertices"]}, _SMALL]
_SEPARATORS = [(", ", ": "), (",", ":")]


def _seeded_table(**kwargs) -> ResultCache:
    """A table that has parsed every spelling of ``_KNOWN`` the bodies below use."""
    table = ResultCache(**kwargs)
    for payload in _KNOWN:
        for separators in _SEPARATORS:
            member = json.dumps(payload, separators=separators)
            parse_request(('{"op":"partition","hypergraph":' + member + "}").encode(), hypergraphs=table)
    return table


@st.composite
def _hit_requests(draw) -> bytes:
    """Bodies whose "hypergraph" members are often known, sometimes followed by malformed text."""
    members = draw(
        st.lists(_members | st.sampled_from(_KNOWN).map(lambda p: ("hypergraph", p)), min_size=1, max_size=6)
    )
    space = draw(st.sampled_from(["", " ", "\n  "]))
    separators = draw(st.sampled_from(_SEPARATORS))
    parts = [
        f"{space}{json.dumps(k)}:{space}{json.dumps(v, separators=separators)}" for k, v in members
    ]
    keys = [k for k, _ in members]
    if "hypergraph" in keys:
        first = keys.index("hypergraph")
        parts[first] += draw(st.sampled_from(["", "", "x", " :1", "]", "NaN", '"x"', "}"]))
    text = "{" + ",".join(parts) + draw(st.sampled_from(["}", "}", "", ",}"]))
    return (text + draw(st.sampled_from(["", "\n", " x"]))).encode()


class TestParseRequest:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raws=st.lists(_requests(), min_size=1, max_size=4))
    def test_answers_and_errors_match_a_json_loads_parse(self, raws):
        # One table across the requests, so later ones hit what earlier
        # ones built.
        table = ResultCache()
        for raw in raws:
            for expected_op in (None, "partition"):
                expected = _expected(raw, expected_op=expected_op)
                assert _outcome(raw, expected_op=expected_op, hypergraphs=table) == expected

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raws=st.lists(_hit_requests(), min_size=1, max_size=4), max_entries=st.sampled_from([1, 2, 64]))
    def test_table_hits_match_a_json_loads_parse(self, raws, max_entries):
        # The table starts holding every member text the bodies use, so
        # each "hypergraph" member is a candidate for the skip; a small
        # table evicts as later requests add what they build.
        table = _seeded_table(max_entries=max_entries)
        for raw in raws:
            for expected_op in (None, "partition"):
                expected = _expected(raw, expected_op=expected_op)
                assert _outcome(raw, expected_op=expected_op, hypergraphs=table) == expected

    @pytest.mark.parametrize(
        "tail",
        ["", "x", ",", ",}", "}}", " :1}", ',"op":}', ',"hypergraph"', "]", ' "seed"'],
    )
    def test_a_known_member_followed_by_malformed_text(self, tail):
        table = _seeded_table()
        member = json.dumps(_good)
        raw = ('{"op":"partition","hypergraph":' + member + tail).encode()
        for body in (raw, raw + b"}"):
            assert _outcome(body, hypergraphs=table) == _expected(body)

    def test_repeated_hypergraph_keys_take_the_last_member(self):
        table = _seeded_table()
        known, other = json.dumps(_good), json.dumps(_SMALL)
        for first, last in ((known, other), (other, known), (known, known), (known, "[1, 2]")):
            raw = ('{"op":"partition","hypergraph":' + first + ',"hypergraph":' + last + "}").encode()
            assert _outcome(raw, hypergraphs=table) == _expected(raw)

    def test_an_entry_evicted_between_the_skip_and_its_use(self):
        table = _seeded_table()
        raw = _body(_good, engine="kl", seed=3)
        find = table.find_hypergraph
        seeded = find(_member_key(_good))

        def find_then_evict(key):
            entry = find(key)
            table.clear()
            return entry

        with mock.patch.object(table, "find_hypergraph", side_effect=find_then_evict):
            request = parse_request(raw, hypergraphs=table)
        assert seeded is not None and request.entry is seeded
        assert table.stats()["hypergraphs"] == 0
        assert _described(request) == _expected(raw)

    def test_the_walk_skips_a_known_member_once_per_body(self):
        table = _seeded_table()
        member = json.dumps(_good)
        calls, payloads = [], []
        for text in (
            '{"hypergraph":' + member + "}",
            '{"hypergraph":' + member + ',"hypergraph":' + member + "}",
        ):
            find = mock.Mock(side_effect=table.find_hypergraph)
            payload, spans = decode_members(text, table.hypergraph_lengths(), find)
            assert text[slice(*spans["hypergraph"])] == member
            calls.append(find.call_count)
            payloads.append(payload["hypergraph"])
        assert 1 <= calls[0] == calls[1] <= len(table.hypergraph_lengths())
        assert isinstance(payloads[0], KnownMember)
        assert payloads[1] == json.loads(member)  # the repeat was decoded

    def test_a_hit_is_a_private_copy_of_a_fresh_build(self):
        table = ResultCache()
        payload = hypergraph_to_payload(_hypergraph())
        fresh = hypergraph_from_payload(payload)
        first = parse_request(_body(payload, seed=1), hypergraphs=table)
        with mock.patch.object(protocol, "hypergraph_from_payload") as build, mock.patch.object(
            protocol, "hypergraph_digest"
        ) as digest, mock.patch.object(pickle, "loads", wraps=pickle.loads) as loads:
            second = parse_request(_body(payload, engine="kl", seed=2), hypergraphs=table)
            third = parse_request(_body(payload, starts=3, refine="fm"), hypergraphs=table)
        assert not build.called and not digest.called and not loads.called
        assert second.entry is third.entry is first.entry
        assert table.stats()["hypergraph_hits"] == 2
        copies = [_unpickled(request) for request in (first, second, third)]
        for h, request in zip(copies, (first, second, third)):
            assert h == fresh
            assert h.vertices == fresh.vertices and h.edge_names == fresh.edge_names
            assert request.digest == hypergraph_digest(fresh)
        assert len({id(h) for h in copies}) == 3
        copies[1].add_vertex("late")
        assert _unpickled(parse_request(_body(payload, seed=4), hypergraphs=table)) == fresh

    def test_the_same_content_in_another_order_is_built(self):
        table = ResultCache()
        payload = hypergraph_to_payload(_hypergraph())
        turned = {"vertices": payload["vertices"][::-1], "edges": payload["edges"][::-1]}
        a = parse_request(_body(payload), hypergraphs=table)
        b = parse_request(_body(turned), hypergraphs=table)
        assert a.digest == b.digest and _unpickled(a) == _unpickled(b)
        assert _unpickled(b).vertices == list(hypergraph_from_payload(turned).vertices)
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

    @pytest.mark.parametrize(
        "settings_", [{"seed": "x"}, {"starts": 0}, {"granularity": 3}], ids=["seed", "starts", "unknown"]
    )
    def test_a_refused_request_leaves_the_hit_count_and_the_lru_order(self, settings_):
        table = ResultCache(max_entries=2)
        for payload in (_good, _SMALL):
            parse_request(_body(payload), hypergraphs=table)
        with pytest.raises(RequestError):
            parse_request(_body(_good, **settings_), hypergraphs=table)
        assert table.stats()["hypergraph_hits"] == 0
        # _good is still the least recently used entry: the next new one evicts it.
        third = {"vertices": [[0, 1.0], [1, 1.0], [2, 1.0]], "edges": [["e", [0, 2], 1.0]]}
        parse_request(_body(third), hypergraphs=table)
        kept = [table.find_hypergraph(_member_key(p)) is not None for p in (_good, _SMALL, third)]
        assert kept == [False, True, True]


class TestTableBounds:
    def _fill(self, table: ResultCache, count: int) -> list[int]:
        """Parse ``count`` new hypergraphs; each one's pickle plus view bytes."""
        sizes = []
        for i in range(count):
            h = Hypergraph(edges=[[i, i + 1 + k] for k in range(i % 5 + 1)])
            parse_request(_body(hypergraph_to_payload(h)), hypergraphs=table)
            sizes.append(len(pickle.dumps(h, pickle.HIGHEST_PROTOCOL)) + VerificationView(h).nbytes)
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
        # The newest entries are kept, and their pickles and views are what is counted.
        assert stats["hypergraph_bytes"] == sum(sizes[-stats["hypergraphs"]:])

    def test_the_distinct_member_lengths_follow_the_kept_entries(self):
        table = ResultCache(max_entries=2)
        members = [json.dumps(payload, separators=(",", ":")) for payload in _KNOWN]
        for member in members:
            parse_request(('{"op":"partition","hypergraph":' + member + "}").encode(), hypergraphs=table)
        assert sorted(table.hypergraph_lengths()) == sorted({len(m) for m in members[1:]})
        table.clear()
        assert table.hypergraph_lengths() == ()

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


class TestInProcessWorker:
    def test_a_table_hit_and_a_fresh_build_give_the_same_body(self):
        table = ResultCache()
        raw = _body(_good, engine="algorithm1", seed=3, starts=2)
        built = parse_request(raw, hypergraphs=table)
        hit = parse_request(raw, hypergraphs=table)
        assert hit.entry is built.entry and table.stats()["hypergraph_hits"] == 1
        workers = WorkerTable(16, 64 << 20)
        ran_built = app._service_worker({"request": built, "obs": False}, table=workers)
        ran_hit = app._service_worker({"request": hit, "obs": False}, table=workers)
        assert (ran_built["table_hit"], ran_hit["table_hit"]) == (False, True)
        assert ran_hit["body"] == ran_built["body"]
        verify.verify_partition_body(hit.entry.view, ran_hit["body"], digest=hit.digest)


def _counted(init, built: list):
    """``init``, noting the class of every object it initializes in ``built``."""

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return counting


class _DecoderSpy:
    """Stands in for the member walk's decoder and keeps every value it decoded."""

    def __init__(self, decoder) -> None:
        self.decoder = decoder
        self.values: list = []

    def raw_decode(self, text, idx=0):
        value, end = self.decoder.raw_decode(text, idx)
        self.values.append(value)
        return value, end


class TestDaemon:
    def test_a_resent_hypergraph_is_not_decoded_built_or_unpickled(self, monkeypatch):
        payload = hypergraph_to_payload(_hypergraph())
        entries = []
        put = ResultCache.put_hypergraph

        def keep_entry(self, key, entry):
            entries.append(entry)
            return put(self, key, entry)

        monkeypatch.setattr(ResultCache, "put_hypergraph", keep_entry)
        svc, client = _daemon()
        try:
            status, _ = client.request_raw("POST", "/partition", _body(payload, seed=1))
            assert status == 200 and len(entries) == 1
            blob = entries[0].blob
            decoder = _DecoderSpy(protocol._DECODER)
            monkeypatch.setattr(protocol, "_DECODER", decoder)
            loads = mock.Mock(side_effect=pickle.loads)
            monkeypatch.setattr(pickle, "loads", loads)
            built = []
            for cls in (Hypergraph, VerificationView):
                monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, built))
            for path, raw in _requests_of(payload):
                status, reply = client.request_raw("POST", path, raw)
                assert status == 200, reply
                assert json.loads(reply)["served"]["cache"] == "miss"
            cache = client.metrics()["cache"]
        finally:
            _stop(svc, client)
        assert cache["hypergraph_hits"] == len(ALL_ENGINES) + 1 and len(entries) == 1
        assert not built, f"built during table hits: {built}"
        assert all(call.args[0] != blob for call in loads.call_args_list), "a table blob was unpickled"
        assert decoder.values, "the walk decoded no member at all"
        assert not [v for v in decoder.values if isinstance(v, dict) and "vertices" in v]

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
