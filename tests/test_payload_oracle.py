"""The bulk payload fill, the lazy incidence index and the digest against their old forms.

``tests/reference_payload.py`` keeps the code these replaced:
``hypergraph_from_payload`` adding one entry at a time, a hypergraph
filling its incidence index on every add, and the digest's generator
expressions.  Every check here compares ``src`` with it on the same
input:

* the built tables (``==``), vertex and edge order, the member order
  of every edge, the iteration order of every vertex's incidence set,
  the next auto-generated edge name, and the digest;
* for a malformed payload, the message of the first error.  Payloads
  the old code refused untyped (a bad vertex weight or label) now get
  a ``JsonFormatError`` naming the entry and carrying the old message.
"""

from __future__ import annotations

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digest import hypergraph_digest
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.io.json_io import JsonFormatError, _encode_label, hypergraph_from_payload

from tests.reference_payload import (
    EagerHypergraph,
    reference_hypergraph_digest,
    reference_hypergraph_from_payload,
)

# Small pools, so duplicates, collisions (1, 1.0 and True are one dict
# key) and implicit vertices come up often.
LABELS = st.one_of(
    st.integers(0, 6),
    st.sampled_from(["a", "b", "c", "1", "e0"]),
    st.sampled_from([1, 1.0, True, 0.5]),
    st.tuples(st.sampled_from(["chain", "x"]), st.integers(0, 2)),
)
WEIGHTS = st.one_of(st.integers(1, 4), st.sampled_from([0.5, 1.25, 2.75, 3.0, 1e-3]))

# Entries the old builder refused: typed (JsonFormatError) for the shape
# checks and every edge failure, untyped for a bad vertex weight or label.
BAD_VERTEX_ENTRIES = st.sampled_from(
    [
        ["a"],
        "a",
        ["a", "heavy"],
        ["a", True],
        ["a", 0],
        ["b", -1],
        [[1, 2], 1],
        [{"__tuple__": 5}, 1],
        [{"plain": "dict"}, 1],
        [{"__tuple__": [[1]]}, 1],
    ]
)
BAD_EDGE_ENTRIES = st.sampled_from(
    [
        ["n", ["a"]],
        ["n", [], 1],
        ["n", "a", 1],
        ["n", ["a"], "w"],
        ["n", ["a"], False],
        ["n", ["a", "b"], 0],
        ["n", ["a"], -2.5],
        ["n", ["a", {"__tuple__": 5}], 1],
        ["n", ["a", [1]], 1],
        [[1], ["a"], 1],
        [{"__tuple__": 5}, ["a"], 1],
        [{"__tuple__": 5}, [[1]], 1],
    ]
)


def _entries(draw, good, bad, clean):
    """Up to 10 entries: ``good(i)`` ones, and now and then (unless ``clean``) a ``bad`` one."""
    return [
        draw(bad) if not clean and draw(st.integers(0, 6)) == 0 else draw(good(i))
        for i in range(draw(st.integers(0, 10)))
    ]


def _vertex(_i):
    return st.tuples(LABELS, WEIGHTS).map(lambda t: [_encode_label(t[0]), t[1]])


def _edge(i):
    # Mostly a fresh name; sometimes none (auto-named), or one that may
    # clash with an auto-name or an earlier edge.
    name = st.one_of(
        st.just(f"n{i}"), st.just(f"n{i}"), st.just(f"n{i}"), st.just(f"n{i}"),
        st.none(), st.sampled_from(["e0", "e1", 7]), LABELS,
    )
    pins = st.lists(LABELS, min_size=1, max_size=5)
    return st.tuples(name, pins, WEIGHTS).map(
        lambda t: [_encode_label(t[0]), [_encode_label(p) for p in t[1]], t[2]]
    )


@st.composite
def payloads(draw):
    clean = draw(st.booleans())
    payload = {
        "vertices": _entries(draw, _vertex, BAD_VERTEX_ENTRIES, clean),
        "edges": _entries(draw, _edge, BAD_EDGE_ENTRIES, clean),
    }
    # What a decoder hands over: lists, dicts, str, int, float, bool, None.
    return json.loads(json.dumps(payload))


def _outcome(build, payload):
    try:
        return build(payload), None
    except Exception as exc:  # the two sides' exceptions are compared
        return None, exc


def _reprs(items) -> list[str]:
    # repr, not ==: 1, 1.0 and True are equal but are different labels.
    return list(map(repr, items))


def _assert_same_hypergraph(new: Hypergraph, old: Hypergraph) -> None:
    assert new == old
    assert _reprs(new.vertices) == _reprs(old.vertices)
    assert _reprs(new.edge_names) == _reprs(old.edge_names)
    assert [_reprs(m) for _, m in new.iter_edges()] == [_reprs(m) for _, m in old.iter_edges()]
    for v in old.vertices:
        assert _reprs(new.incident_edges_view(v)) == _reprs(old.incident_edges_view(v))


class TestBulkFill:
    @settings(max_examples=400, deadline=None)
    @given(payload=payloads())
    def test_matches_adding_entries_one_by_one(self, payload):
        old, old_exc = _outcome(reference_hypergraph_from_payload, payload)
        new, new_exc = _outcome(hypergraph_from_payload, payload)
        if old_exc is not None:
            assert isinstance(new_exc, JsonFormatError), new_exc
            if isinstance(old_exc, JsonFormatError):
                assert new_exc.message == old_exc.message
            else:
                assert isinstance(old_exc, (HypergraphError, TypeError))
                assert re.fullmatch(
                    r"vertex entry \d+: " + re.escape(str(old_exc)), new_exc.message
                ), (new_exc.message, old_exc)
            return
        assert new_exc is None, new_exc
        _assert_same_hypergraph(new, old)
        assert hypergraph_digest(new) == reference_hypergraph_digest(old)
        # The auto-name counter carries over: the next unnamed edge
        # gets the same name on both sides.
        if old.num_vertices:
            first = old.vertices[0]
            assert new.add_edge([first]) == old.add_edge([first])

    def test_index_is_not_built_by_the_fill(self):
        h = hypergraph_from_payload(
            {"vertices": [["a", 1], ["b", 1]], "edges": [["n", ["a", "b"], 1]]}
        )
        assert h._incidence is None
        hypergraph_digest(h)
        assert h._incidence is None
        assert h.incident_edges("a") == {"n"}

    def test_top_level_shape_errors_match(self):
        for payload in ([1], {"vertices": []}, {"vertices": {}, "edges": []}):
            _, old_exc = _outcome(reference_hypergraph_from_payload, payload)
            _, new_exc = _outcome(hypergraph_from_payload, payload)
            assert new_exc.message == old_exc.message


class TestDigest:
    @settings(max_examples=200, deadline=None)
    @given(payload=payloads())
    def test_matches_the_generator_form(self, payload):
        h, exc = _outcome(hypergraph_from_payload, payload)
        if exc is None:
            assert hypergraph_digest(h) == reference_hypergraph_digest(h)


# One mutation per draw: (op, label, label list, name, weight), over few
# labels so that edges share vertices.
FEW_LABELS = st.one_of(st.sampled_from(["a", "b", 1, True]), LABELS)
OPERATIONS = st.tuples(
    st.sampled_from(
        ["add_vertex", "add_edge", "add_edge", "add_edge", "remove_edge",
         "remove_vertex", "set_vertex_weight", "read"]
    ),
    FEW_LABELS,
    st.lists(FEW_LABELS, min_size=1, max_size=4),
    # Int names hash to themselves, so 0, 8, 16 and 24 share a slot of a
    # small set, and a removal's mark on the layout shows.
    st.one_of(st.none(), st.sampled_from(["n0", "n1", "e0", "e1", 0, 8, 16, 24])),
    WEIGHTS,
)


def _apply(h: Hypergraph, op) -> object:
    kind, label, labels, name, weight = op
    try:
        if kind == "add_vertex":
            return h.add_vertex(label, weight)
        if kind == "add_edge":
            return h.add_edge(labels, name=name, weight=weight)
        if kind == "remove_edge":
            return h.remove_edge(name)
        if kind == "remove_vertex":
            return h.remove_vertex(label)
        if kind == "set_vertex_weight":
            return h.set_vertex_weight(label, weight)
        return h.incident_edges(label)  # "read": builds a lazy index
    except HypergraphError as exc:
        return ("error", str(exc))


class TestLazyIndex:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(OPERATIONS, max_size=30), keep=st.lists(st.integers(0, 30)))
    def test_matches_the_eager_index(self, ops, keep):
        old, new = EagerHypergraph(), Hypergraph()
        for op in ops:
            assert repr(_apply(new, op)) == repr(_apply(old, op))
        _assert_same_hypergraph(new, old)
        new.validate()
        names = old.edge_names
        subset = list(dict.fromkeys(names[i % len(names)] for i in keep)) if names else []
        _assert_same_hypergraph(new.restricted_to_edges(subset), old.restricted_to_edges(subset))

    def test_a_removal_keeps_its_mark_on_the_layout(self):
        # After 0 leaves, 16 takes its slot: [16, 8], where building the
        # index afresh from the edges left would give [8, 16].
        orders = []
        for h in (EagerHypergraph(), Hypergraph()):
            h.add_edge(["v"], name=0)
            h.add_edge(["v"], name=8)
            h.remove_edge(0)
            h.add_edge(["v"], name=16)
            orders.append(list(h.incident_edges_view("v")))
        assert orders == [[16, 8], [16, 8]]

    def test_restricted_to_edges_builds_no_index(self):
        h = Hypergraph(edges={"a": [1, 2], "b": [2, 3]})
        h.incident_edges(1)
        sub = h.restricted_to_edges(["b"])
        assert sub._incidence is None
        assert sub.incident_edges(2) == {"b"}
        assert sub.incident_edges(1) == frozenset()
