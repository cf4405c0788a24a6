"""Lossless JSON round-trip for hypergraphs (names, weights, pin order).

Schema::

    {
      "vertices": [[label, weight], ...],
      "edges":    [[name, [pins...], weight], ...]
    }

Labels and names must be JSON-serializable (str/int/float/bool); tuples
— e.g. the ``("chain", module, i)`` names from granularization — are
encoded as tagged lists ``{"__tuple__": [...]}`` and restored on read.
Weights must be positive and finite (``NaN`` and ``Infinity``, which
Python's decoder accepts, are refused).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.hypergraph import (
    Hypergraph,
    HypergraphError,
    auto_edge_name,
    checked_weight,
)
from repro.io.errors import ParseError


class JsonFormatError(ParseError):
    """Raised on malformed JSON hypergraph content (with source/line context)."""


def _encode_label(label):
    if isinstance(label, tuple):
        return {"__tuple__": [_encode_label(item) for item in label]}
    return label


def _decode_label(obj):
    if isinstance(obj, dict) and "__tuple__" in obj:
        return tuple(_decode_label(item) for item in obj["__tuple__"])
    return obj


def hypergraph_to_payload(hypergraph: Hypergraph) -> dict:
    """The JSON-ready dict form (the schema above, before serialization).

    Used directly by callers embedding a hypergraph inside a larger JSON
    document — e.g. a :mod:`repro.server` partition request.
    """
    return {
        "vertices": [
            [_encode_label(v), hypergraph.vertex_weight(v)] for v in hypergraph.vertices
        ],
        "edges": [
            [
                _encode_label(name),
                [_encode_label(p) for p in sorted(hypergraph.edge_members(name), key=repr)],
                hypergraph.edge_weight(name),
            ]
            for name in hypergraph.edge_names
        ],
    }


def hypergraph_to_json(hypergraph: Hypergraph) -> str:
    """Serialize to a JSON string (stable key order for diffs)."""
    return json.dumps(hypergraph_to_payload(hypergraph), indent=2, sort_keys=False)


def hypergraph_from_json(text: str) -> Hypergraph:
    """Parse the JSON produced by :func:`hypergraph_to_json`.

    Raises :class:`JsonFormatError` on syntactically invalid JSON (with
    the decoder's line number) or on structurally wrong payloads (wrong
    keys, mis-shaped vertex/edge entries, non-numeric weights).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    return hypergraph_from_payload(payload)


def hypergraph_from_payload(payload) -> Hypergraph:
    """Validate and build a hypergraph from the already-decoded dict form.

    The dict-level half of :func:`hypergraph_from_json`; raises
    :class:`JsonFormatError` (never a bare ``KeyError``/``TypeError``)
    on structurally wrong payloads, naming the first bad vertex or edge
    entry.  The tables are filled in bulk, with the checks, the first
    error, and the vertex and edge order that adding each entry through
    :meth:`Hypergraph.add_vertex` / :meth:`Hypergraph.add_edge` gives;
    the incidence index is left to be built on first read.
    """
    if not isinstance(payload, dict) or "vertices" not in payload or "edges" not in payload:
        raise JsonFormatError("JSON hypergraph must have 'vertices' and 'edges' keys")
    if not isinstance(payload["vertices"], list) or not isinstance(payload["edges"], list):
        raise JsonFormatError("'vertices' and 'edges' must be lists")
    vertex_weights: dict = {}
    for i, entry in enumerate(payload["vertices"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise JsonFormatError(
                f"vertex entry {i}: expected [label, weight], got {entry!r}"
            )
        label, weight = entry
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise JsonFormatError(f"vertex entry {i}: weight {weight!r} is not a number")
        try:
            label = _decode_label(label)
            vertex_weights[label] = checked_weight("vertex", weight)
        except (ValueError, TypeError) as exc:
            raise JsonFormatError(f"vertex entry {i}: {exc}") from None
    edge_members: dict = {}
    edge_weights: dict = {}
    auto_counter = 0
    for i, entry in enumerate(payload["edges"]):
        if not isinstance(entry, list) or len(entry) != 3:
            raise JsonFormatError(
                f"edge entry {i}: expected [name, [pins...], weight], got {entry!r}"
            )
        name, pins, weight = entry
        if not isinstance(pins, list) or not pins:
            raise JsonFormatError(f"edge entry {i}: pins must be a non-empty list")
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise JsonFormatError(f"edge entry {i}: weight {weight!r} is not a number")
        try:
            try:
                # Hashable pins are plain labels: they decode to themselves.
                members = frozenset(pins)
            except TypeError:
                members = pins = [_decode_label(p) for p in pins]
            name = _decode_label(name)
            members = frozenset(members)
            weight = checked_weight("edge", weight)
            if name is None:
                name, auto_counter = auto_edge_name(edge_members, auto_counter)
            elif name in edge_members:
                raise HypergraphError(f"duplicate edge name {name!r}")
        except (ValueError, TypeError) as exc:
            raise JsonFormatError(f"edge entry {i}: {exc}") from None
        for v in pins:  # implicit vertices, in pin order
            if v not in vertex_weights:
                vertex_weights[v] = 1.0
        edge_members[name] = members
        edge_weights[name] = weight
    return Hypergraph._from_tables(vertex_weights, edge_members, edge_weights, auto_counter)


def read_json(path: str | Path) -> Hypergraph:
    """Read a JSON hypergraph file.

    Parse failures re-raise with the filename attached, so the error
    reads ``<path>: [line <n>:] <problem>``.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return hypergraph_from_json(text)
    except JsonFormatError as exc:
        raise exc.with_source(str(path)) from None


def write_json(hypergraph: Hypergraph, path: str | Path) -> None:
    """Write a JSON hypergraph file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hypergraph_to_json(hypergraph))
