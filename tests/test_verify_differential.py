"""The index-space verify gate against the label-space walk it replaced.

``tests/reference_verify.py`` keeps the old verifiers verbatim: python
sets of labels, ``crossing_edges`` over every edge's members, and the
label-set balance.  Every check here runs both on the same body and
holds ``src`` to the same outcome: passing, or the same exception type
with the same message.  ``src`` runs twice, given the hypergraph and
given its :class:`~repro.metrics.verify.VerificationView`.

Covered: missing, extra, duplicated, swapped, moved and unknown
vertices, a vertex on both sides, labels respelled as equal values
(``1.0`` for ``1``), unhashable and malformed labels, off-by-one and
off-by-an-ulp ``cutsize``, ``weighted_cutsize`` and
``imbalance_fraction``, claims of the wrong type, wrong or missing
fields and identity mismatches, with int, str and tuple labels sent as
JSON (tuples as ``{"__tuple__": ...}``) or as python values.  Place
bodies get the same treatment.  The verifier shares no code with the
engines: it never builds a ``HypergraphIndex``.
"""

from __future__ import annotations

import copy
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import Hypergraph
from repro.core.index import HypergraphIndex
from repro.io.json_io import _encode_label
from repro.metrics.balance import weight_imbalance_fraction
from repro.metrics.cut import crossing_edges
from repro.metrics.verify import (
    IntegrityError,
    VerificationView,
    verify_partition_body,
    verify_place_body,
)

from tests import reference_verify as reference

LABEL_KINDS = {
    "int": lambda i: 3 * i + 1,
    "str": lambda i: f"m{i}",
    "tuple": lambda i: ("chain", i % 3, i),
}
UNKNOWN = {"int": 1000, "str": "ghost", "tuple": ("chain", 9, 99)}
WEIGHTS = st.sampled_from([1.0, 0.5, 1.25, 2.75, 3.0, 1e-3, 7.0])

PARTITION_MUTATIONS = [
    "none", "drop", "extra", "duplicate", "both_sides", "move", "swap", "unknown",
    "respell", "cut+1", "cut-1", "cut_float", "cut_bool", "cut_str", "cut_list",
    "cut_missing", "weighted+1", "weighted_ulp", "weighted_int", "imbalance_ulp",
    "imbalance+1", "imbalance_missing", "left_not_list", "right_missing", "unhashable",
    "bad_tuple", "not_dict", "digest", "fingerprint", "settings",
]
PLACE_MUTATIONS = [
    "none", "drop", "extra", "duplicate", "swap", "unknown", "respell", "out_of_grid",
    "negative_slot", "same_slot", "short_item", "float_slot", "grid_missing",
    "grid_float", "positions_not_list", "unhashable", "bad_tuple", "not_dict", "digest",
]


def _outcome(verify, source, body, **identity):
    try:
        verify(source, copy.deepcopy(body), **identity)
    except Exception as exc:  # the type is half of what is compared
        return type(exc), str(exc)
    return ("ok",)


def _agree(src_verify, ref_verify, h: Hypergraph, body, **identity):
    expected = _outcome(ref_verify, h, body, **identity)
    assert _outcome(src_verify, h, body, **identity) == expected
    assert _outcome(src_verify, VerificationView(h), body, **identity) == expected
    return expected


def _instance(kind: str, weights: list[float], edges: list[tuple[list[int], float]]) -> Hypergraph:
    label = LABEL_KINDS[kind]
    h = Hypergraph()
    for i, weight in enumerate(weights):
        h.add_vertex(label(i), weight=weight)
    for pins, weight in edges:
        h.add_edge([label(i) for i in pins], weight=weight)
    return h


def _claims(h: Hypergraph, left: list) -> dict:
    left_set = set(left)
    crossing = crossing_edges(h, left_set)
    return {
        "cutsize": len(crossing),
        "weighted_cutsize": math.fsum(h.edge_weight(e) for e in crossing),
        "imbalance_fraction": weight_imbalance_fraction(h, left_set),
    }


def _encoded(labels: list, as_json: bool) -> list:
    return [_encode_label(v) for v in labels] if as_json else list(labels)


def _finish(body, as_json: bool):
    return json.loads(json.dumps(body)) if as_json else body


def _pick(rng, items: list):
    return items[rng.randrange(len(items))] if items else None


def _partition_case(h, kind, left_mask, mutation, as_json, rng):
    vertices = h.vertices
    left = [v for v, on in zip(vertices, left_mask) if on]
    right = [v for v, on in zip(vertices, left_mask) if not on]
    body = {"digest": "d", "fingerprint": "f", "settings": {"seed": 1}, **_claims(h, left)}
    identity = {}
    if mutation == "drop" and (left or right):
        side = left if left else right
        side.pop(rng.randrange(len(side)))
    elif mutation == "extra":
        (left if rng.random() < 0.5 else right).append(UNKNOWN[kind])
    elif mutation == "duplicate" and (left or right):
        side = left if left else right
        side.append(_pick(rng, side))
    elif mutation == "both_sides" and left:
        right.append(_pick(rng, left))
    elif mutation == "move" and left:
        right.append(left.pop(rng.randrange(len(left))))
    elif mutation == "swap" and left and right:
        i, j = rng.randrange(len(left)), rng.randrange(len(right))
        left[i], right[j] = right[j], left[i]
    elif mutation == "unknown" and (left or right):
        side = left if left else right
        side[rng.randrange(len(side))] = UNKNOWN[kind]
    elif mutation == "respell" and kind == "int" and left:
        left[0] = float(left[0])
    body["left"] = _encoded(left, as_json)
    body["right"] = _encoded(right, as_json)
    if mutation == "cut+1":
        body["cutsize"] += 1
    elif mutation == "cut-1":
        body["cutsize"] -= 1
    elif mutation == "cut_float":
        body["cutsize"] = float(body["cutsize"])
    elif mutation == "cut_bool":
        body["cutsize"] = bool(body["cutsize"])
    elif mutation == "cut_str":
        body["cutsize"] = str(body["cutsize"])
    elif mutation == "cut_list":
        body["cutsize"] = [body["cutsize"]]
    elif mutation == "cut_missing":
        del body["cutsize"]
    elif mutation == "weighted+1":
        body["weighted_cutsize"] += 1.0
    elif mutation == "weighted_ulp":
        body["weighted_cutsize"] = math.nextafter(body["weighted_cutsize"], math.inf)
    elif mutation == "weighted_int":
        body["weighted_cutsize"] = int(body["weighted_cutsize"])
    elif mutation == "imbalance_ulp":
        body["imbalance_fraction"] = math.nextafter(body["imbalance_fraction"], math.inf)
    elif mutation == "imbalance+1":
        body["imbalance_fraction"] += 1.0
    elif mutation == "imbalance_missing":
        del body["imbalance_fraction"]
    elif mutation == "left_not_list":
        body["left"] = {"a": 1} if rng.random() < 0.5 else None
    elif mutation == "right_missing":
        del body["right"]
    elif mutation == "unhashable":
        body["right"].append([1, 2])
    elif mutation == "bad_tuple":
        body["left"].append({"__tuple__": 5})
    elif mutation == "not_dict":
        body = [body]
    elif mutation == "digest":
        identity = {"digest": "other"}
    elif mutation == "fingerprint":
        identity = {"digest": "d", "fingerprint": "other"}
    elif mutation == "settings":
        identity = {"digest": "d", "fingerprint": "f", "settings": {"seed": 2}}
    elif rng.random() < 0.5:
        identity = {"digest": "d", "fingerprint": "f", "settings": {"seed": 1}}
    return _finish(body, as_json), identity


def _place_case(h, kind, mutation, as_json, rng):
    vertices = list(h.vertices)
    rows = cols = math.isqrt(len(vertices)) + 1
    cells = [[r, c] for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    positions = [[v, cell] for v, cell in zip(vertices, cells)]
    free = cells[len(vertices):]
    body = {"digest": "d", "fingerprint": "f", "settings": {"seed": 1}}
    grid = {"rows": rows, "cols": cols}
    identity = {}
    if mutation == "drop":
        positions.pop(rng.randrange(len(positions)))
    elif mutation == "extra" and free:
        positions.append([UNKNOWN[kind], free[0]])
    elif mutation == "duplicate" and free:
        positions.append([_pick(rng, vertices), free[0]])
    elif mutation == "swap":
        i, j = rng.randrange(len(positions)), rng.randrange(len(positions))
        positions[i][1], positions[j][1] = positions[j][1], positions[i][1]
    elif mutation == "unknown":
        positions[rng.randrange(len(positions))][0] = UNKNOWN[kind]
    elif mutation == "respell" and kind == "int":
        positions[0][0] = float(positions[0][0])
    elif mutation == "out_of_grid":
        positions[-1][1] = [rows, 0]
    elif mutation == "negative_slot":
        positions[-1][1] = [0, -1]
    elif mutation == "same_slot":
        positions[-1][1] = list(positions[0][1])
    elif mutation == "short_item":
        positions[-1] = positions[-1][:1]
    elif mutation == "float_slot":
        positions[-1][1] = [0.0, 1]
    elif mutation == "grid_missing":
        grid = None
    elif mutation == "grid_float":
        grid = {"rows": float(rows), "cols": cols}
    elif mutation == "unhashable" and free:
        positions.append([[1, 2], free[0]])
    elif mutation == "bad_tuple" and free:
        positions.append([{"__tuple__": 5}, free[0]])
    elif mutation == "digest":
        identity = {"digest": "other"}
    body["grid"] = grid
    body["positions"] = [
        [_encode_label(item[0]) if as_json else item[0], *item[1:]] for item in positions
    ]
    if mutation == "positions_not_list":
        body["positions"] = {"a": 1}
    elif mutation == "not_dict":
        body = None
    return _finish(body, as_json), identity


@st.composite
def _hypergraphs(draw) -> tuple[str, Hypergraph]:
    kind = draw(st.sampled_from(sorted(LABEL_KINDS)))
    n = draw(st.integers(2, 9))
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    pins = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
    edges = draw(st.lists(st.tuples(pins, WEIGHTS), max_size=10))
    return kind, _instance(kind, weights, edges)


class TestPartitionDifferential:
    @settings(max_examples=600, deadline=None)
    @given(
        instance=_hypergraphs(),
        data=st.data(),
        mutation=st.sampled_from(PARTITION_MUTATIONS),
        as_json=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    def test_same_outcome_as_the_label_space_walk(self, instance, data, mutation, as_json, rng):
        kind, h = instance
        mask = data.draw(st.lists(st.booleans(), min_size=h.num_vertices, max_size=h.num_vertices))
        body, identity = _partition_case(h, kind, mask, mutation, as_json, rng)
        _agree(verify_partition_body, reference.verify_partition_body, h, body, **identity)

    @pytest.mark.parametrize("as_json", [True, False])
    @pytest.mark.parametrize("kind", sorted(LABEL_KINDS))
    @pytest.mark.parametrize("mutation", PARTITION_MUTATIONS)
    def test_every_mutation_of_every_label_kind(self, mutation, kind, as_json):
        h = _instance(
            kind,
            [1.0, 2.5, 0.5, 3.0, 1.0, 1.25],
            [([0, 1], 1.0), ([1, 2, 3], 2.75), ([3, 4], 0.5), ([4, 5, 0], 3.0), ([2], 7.0)],
        )
        body, identity = _partition_case(
            h, kind, [True, True, False, True, False, False], mutation, as_json, random.Random(7)
        )
        outcome = _agree(verify_partition_body, reference.verify_partition_body, h, body, **identity)
        if mutation in ("none", "cut_float", "respell"):  # equal values pass
            assert outcome == ("ok",)
        else:
            assert outcome != ("ok",), mutation

    def test_an_edgeless_hypergraph(self):
        h = Hypergraph(vertices=["a", "b", "c"])
        for left in ([], ["a"], ["a", "b", "c"]):
            body = {"left": left, "right": [v for v in "abc" if v not in left], **_claims(h, left)}
            assert _agree(verify_partition_body, reference.verify_partition_body, h, body) == ("ok",)


class TestPlaceDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        instance=_hypergraphs(),
        mutation=st.sampled_from(PLACE_MUTATIONS),
        as_json=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    def test_same_outcome_as_the_label_space_walk(self, instance, mutation, as_json, rng):
        kind, h = instance
        body, identity = _place_case(h, kind, mutation, as_json, rng)
        _agree(verify_place_body, reference.verify_place_body, h, body, **identity)

    @pytest.mark.parametrize("kind", sorted(LABEL_KINDS))
    @pytest.mark.parametrize("mutation", PLACE_MUTATIONS)
    def test_every_mutation_of_every_label_kind(self, mutation, kind):
        h = _instance(kind, [1.0] * 5, [([0, 1, 2], 1.0), ([2, 3, 4], 1.0)])
        body, identity = _place_case(h, kind, mutation, True, random.Random(3))
        outcome = _agree(verify_place_body, reference.verify_place_body, h, body, **identity)
        if mutation in ("none", "swap", "respell"):  # a swap of slots is still a placement
            assert outcome == ("ok",)
        else:
            assert outcome != ("ok",), mutation


class TestIndependence:
    def test_no_hypergraph_index_is_built(self):
        h = _instance("str", [1.0, 2.0, 3.0, 4.0], [([0, 1], 1.0), ([1, 2, 3], 2.0)])
        left = ["m0", "m1"]
        body = {"left": left, "right": ["m2", "m3"], **_claims(h, left)}
        refused = AssertionError("the verifier built a HypergraphIndex")
        with mock.patch.object(HypergraphIndex, "__init__", side_effect=refused):
            verify_partition_body(h, body)
            verify_partition_body(VerificationView(h), body)
            body["cutsize"] += 1
            with pytest.raises(IntegrityError):
                verify_partition_body(h, body)

    def test_the_view_counts_its_arrays_and_labels(self):
        h = _instance("str", [1.0, 2.0, 3.0], [([0, 1], 1.0), ([0, 1, 2], 2.0)])
        view = VerificationView(h)
        assert view.labels == ("m0", "m1", "m2")
        assert view.pins.dtype.name == "int32" and len(view.pins) == h.num_pins
        assert view.pin_starts.tolist() == [0, 2, 5]
        assert view.nbytes >= view.pins.nbytes + view.vertex_weights.nbytes + view.edge_weights.nbytes
