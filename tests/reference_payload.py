"""The eagerly indexed hypergraph, the JSON payload builder and the digest, kept as a test reference.

Before the incidence index was built on first read, every
:class:`~repro.core.hypergraph.Hypergraph` filled it on every add, and
:func:`repro.io.json_io.hypergraph_from_payload` added the payload's
entries one at a time.  The code below is that code verbatim:

* :class:`EagerHypergraph` carries the old ``add_vertex``,
  ``add_edge``, ``remove_edge``, ``remove_vertex``,
  ``set_vertex_weight`` and ``restricted_to_edges``, which keep the
  index up to date on every call.  One rule changed since: ``add_edge``
  creates unknown members in the order the pins are given, not in
  frozenset order, as ``src`` does;
* :func:`reference_hypergraph_from_payload` is the old
  ``hypergraph_from_payload``, except that it builds an
  :class:`EagerHypergraph`;
* :func:`reference_hypergraph_digest` is the old ``hypergraph_digest``,
  with its per-item generator expressions.

``tests/test_payload_oracle.py`` checks ``src`` against them: the same
tables, the same iteration order of every incidence set, the same
digest, and the same first error.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from repro.core.hypergraph import EdgeName, Hypergraph, HypergraphError, Vertex
from repro.io.json_io import JsonFormatError, _decode_label


class EagerHypergraph(Hypergraph):
    """A :class:`Hypergraph` whose incidence index is filled on every add."""

    def __init__(self) -> None:
        super().__init__()
        self._incidence = {}

    def add_vertex(self, v: Vertex, weight: float = 1.0) -> Vertex:
        """Add vertex ``v`` (idempotent; re-adding updates the weight)."""
        if weight <= 0:
            raise HypergraphError(f"vertex weight must be positive, got {weight!r}")
        if v not in self._vertex_weights:
            self._incidence[v] = set()
        self._vertex_weights[v] = float(weight)
        return v

    def add_edge(
        self,
        members: Iterable[Vertex],
        name: EdgeName | None = None,
        weight: float = 1.0,
    ) -> EdgeName:
        pins = list(members)
        member_set = frozenset(pins)
        if not member_set:
            raise HypergraphError("hyperedge must contain at least one vertex")
        if weight <= 0:
            raise HypergraphError(f"edge weight must be positive, got {weight!r}")
        if name is None:
            while f"e{self._auto_edge_counter}" in self._edge_members:
                self._auto_edge_counter += 1
            name = f"e{self._auto_edge_counter}"
            self._auto_edge_counter += 1
        elif name in self._edge_members:
            raise HypergraphError(f"duplicate edge name {name!r}")
        for v in pins:
            if v not in self._vertex_weights:
                self.add_vertex(v)
        for v in member_set:
            self._incidence[v].add(name)
        self._edge_members[name] = member_set
        self._edge_weights[name] = float(weight)
        return name

    def remove_edge(self, name: EdgeName) -> None:
        """Remove hyperedge ``name``; its vertices remain."""
        members = self._edge_members.pop(name, None)
        if members is None:
            raise HypergraphError(f"no such edge {name!r}")
        del self._edge_weights[name]
        for v in members:
            self._incidence[v].discard(name)

    def remove_vertex(self, v: Vertex) -> None:
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        for name in list(self._incidence[v]):
            shrunk = self._edge_members[name] - {v}
            if shrunk:
                self._edge_members[name] = shrunk
            else:
                self.remove_edge(name)
        del self._incidence[v]
        del self._vertex_weights[v]

    def set_vertex_weight(self, v: Vertex, weight: float) -> None:
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        if weight <= 0:
            raise HypergraphError(f"vertex weight must be positive, got {weight!r}")
        self._vertex_weights[v] = float(weight)

    def restricted_to_edges(self, edge_subset: Iterable[EdgeName]) -> "Hypergraph":
        names = list(edge_subset)
        members = self._edge_members
        try:
            kept = dict(zip(names, map(members.__getitem__, names)))
        except KeyError:
            kept = {}
        if len(kept) != len(names):
            # Report the first bad name, as adding the edges one by one would.
            seen = set()
            for name in names:
                self.edge_members(name)
                if name in seen:
                    raise HypergraphError(f"duplicate edge name {name!r}")
                seen.add(name)
        h = EagerHypergraph()
        h._vertex_weights = dict(self._vertex_weights)
        h._edge_members = kept
        h._edge_weights = dict(zip(names, map(self._edge_weights.__getitem__, names)))
        h._incidence = incidence = {v: set() for v in self._vertex_weights}
        for name, pins in kept.items():
            for v in pins:
                incidence[v].add(name)
        return h


def reference_hypergraph_from_payload(payload) -> EagerHypergraph:
    """Validate and build a hypergraph from the already-decoded dict form.

    The dict-level half of :func:`hypergraph_from_json`; raises
    :class:`JsonFormatError` (never a bare ``KeyError``/``TypeError``)
    on structurally wrong payloads.
    """
    if not isinstance(payload, dict) or "vertices" not in payload or "edges" not in payload:
        raise JsonFormatError("JSON hypergraph must have 'vertices' and 'edges' keys")
    if not isinstance(payload["vertices"], list) or not isinstance(payload["edges"], list):
        raise JsonFormatError("'vertices' and 'edges' must be lists")
    h = EagerHypergraph()
    for i, entry in enumerate(payload["vertices"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise JsonFormatError(
                f"vertex entry {i}: expected [label, weight], got {entry!r}"
            )
        label, weight = entry
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise JsonFormatError(f"vertex entry {i}: weight {weight!r} is not a number")
        h.add_vertex(_decode_label(label), weight)
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
            h.add_edge(
                [_decode_label(p) for p in pins], name=_decode_label(name), weight=weight
            )
        except (ValueError, TypeError) as exc:
            raise JsonFormatError(f"edge entry {i}: {exc}") from None
    return h


def reference_hypergraph_digest(hypergraph: Hypergraph) -> str:
    """Order-independent SHA-256 content hash of ``hypergraph``.

    Two hypergraphs digest equally iff they compare equal under
    ``Hypergraph.__eq__`` (same labelled vertices with the same weights,
    same named edges over the same members with the same weights) —
    construction order and internal slot layout never matter.
    """
    vertices = sorted(
        (repr(v), hypergraph.vertex_weight(v)) for v in hypergraph.vertices
    )
    edges = sorted(
        (repr(name), sorted(repr(m) for m in members), hypergraph.edge_weight(name))
        for name, members in hypergraph.edges.items()
    )
    blob = repr((vertices, edges)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
