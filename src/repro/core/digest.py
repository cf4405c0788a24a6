"""Content digest of a hypergraph — the canonical cache/journal identity.

One SHA-256 identifies a hypergraph by *content*: its vertex labels and
weights plus its named, weighted hyperedges — nothing else.  Everything
that keys work by instance shares this single implementation:

* the multi-start journal layer binds a ``--journal`` file to its
  instance with it (resuming against a different netlist must fail);
* the partition service (:mod:`repro.server`) keys its content-addressed
  result cache by ``(digest, settings fingerprint)``, so two clients
  submitting the same netlist — however they built or ordered it — hit
  the same cache entry.

Stability contract
------------------
The digest is **insertion-order independent**: vertices and edges are
sorted by ``repr`` before hashing, so two construction orders of the
same hypergraph digest identically.  It is **weight sensitive**: any
vertex- or edge-weight change, any membership change, and any label
rename produces a different digest.  ``tests/test_digest.py`` pins both
halves of the contract.
"""

from __future__ import annotations

import hashlib
from itertools import repeat

from repro.core.hypergraph import Hypergraph

__all__ = ["hypergraph_digest"]


def hypergraph_digest(hypergraph: Hypergraph) -> str:
    """Order-independent SHA-256 content hash of ``hypergraph``.

    Two hypergraphs digest equally iff they compare equal under
    ``Hypergraph.__eq__`` (same labelled vertices with the same weights,
    same named edges over the same members with the same weights) —
    construction order and internal slot layout never matter.

    The hashed text is the ``repr`` of ``(vertices, edges)``: the sorted
    ``(repr(label), weight)`` pairs and the sorted ``(repr(name),
    sorted member reprs, weight)`` triples.  The tables are sorted with
    ``map``/``zip``, so the per-item work runs in C, and the text is
    written out with f-strings rather than by ``repr`` of the nested
    lists, which pays a recursion guard for every pair and triple.  Each
    pin keeps its own ``repr``: an edge member may equal its vertex's
    label without sharing its text (``1.0`` and ``1``).
    """
    vertex_weights = hypergraph._vertex_weights
    edge_members = hypergraph._edge_members
    vertices = sorted(zip(map(repr, vertex_weights), vertex_weights.values()))
    edges = sorted(
        zip(
            map(repr, edge_members),
            map(sorted, map(map, repeat(repr), edge_members.values())),
            hypergraph._edge_weights.values(),
        )
    )
    vertex_text = ", ".join([f"({r!r}, {w!r})" for r, w in vertices])
    edge_text = ", ".join([f"({n!r}, {members!r}, {w!r})" for n, members, w in edges])
    blob = f"([{vertex_text}], [{edge_text}])".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
