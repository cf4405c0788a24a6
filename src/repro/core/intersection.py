"""The dual intersection graph — the central construction of the paper.

Given a hypergraph ``H``, the *intersection graph* ``G`` has one node per
hyperedge of ``H`` (one per signal net), with two nodes adjacent if and
only if the corresponding hyperedges intersect (the signals share a
module).  Section 2 of the paper: "we use the graph cut in G to obtain a
handle on the original hypergraph partition problem."

For a given ``H`` the graph ``G`` is well defined; there is no unique
reverse construction, so :class:`IntersectionGraph` keeps the originating
hypergraph alongside the dual for all later phases (cutting, boundary
extraction, completion).

Complexity: each H-vertex ``v`` induces a clique over its ``deg(v)``
incident hyperedges, so construction costs ``O(sum_v deg(v)^2)`` — with the
bounded node degree ``d`` the paper assumes for circuit netlists, this is
``O(d * pins) = O(n)``-ish, and never worse than ``O(n^2)`` overall.

The dual is built from the hypergraph's
:class:`~repro.core.index.HypergraphIndex`, whose edge rows become the
G-slots: one numpy two-hop gather (each edge row's pins, then each pin's
incident rows) lists every node's neighbours, and C-level ``set.add``
calls fill the slot-indexed adjacency sets from it.  Each set receives
its neighbours in the order one clique per module in vertex order would
have inserted them, so every set has that build's hash-table layout and
iteration order; the CSR snapshot freezes that order, and every BFS
order and tie-break follows it.  Pair identity is the slot, never a
label or its ``repr``: two *distinct* edge names with an identical
``repr`` are never conflated.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

import numpy as np

from repro.core.csr import gather_rows
from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.index import HypergraphIndex

EdgeName = Hashable
Vertex = Hashable

#: Neighbour entries converted to python ints at a time while filling the
#: dual's sets, so no whole-run int list is ever held.
_CHUNK = 1 << 16


class IntersectionGraph:
    """The dual graph ``G`` together with its source hypergraph.

    Attributes
    ----------
    hypergraph:
        The original ``H`` (with large edges already filtered out, if the
        caller applied :func:`repro.core.filtering.filter_large_edges`).
    graph:
        The dual ``G``; node labels are exactly the hyperedge names of
        ``hypergraph``.
    shared_vertices:
        For each adjacent pair ``(a, b)`` of G-nodes (stored with
        ``index_of(a) < index_of(b)``, a stable total order even when
        distinct names share a ``repr``), the H-vertices the two
        hyperedges share.  Built lazily on first access — the hot path
        never needs the full witness table, only :meth:`shared` queries.
    index:
        The per-run :class:`~repro.core.index.HypergraphIndex` of
        ``hypergraph`` the dual was built from; Algorithm I's per-start
        steps run on its tables.
    """

    __slots__ = ("hypergraph", "graph", "index", "_shared_cache")

    def __init__(
        self,
        hypergraph: Hypergraph,
        graph: Graph,
        index: HypergraphIndex,
        shared_vertices: dict[tuple[EdgeName, EdgeName], frozenset[Vertex]] | None = None,
    ) -> None:
        self.hypergraph = hypergraph
        self.graph = graph
        self.index = index
        self._shared_cache = dict(shared_vertices) if shared_vertices is not None else None

    @property
    def shared_vertices(self) -> dict[tuple[EdgeName, EdgeName], frozenset[Vertex]]:
        if self._shared_cache is None:
            cache: dict[tuple[EdgeName, EdgeName], frozenset[Vertex]] = {}
            g = self.graph
            h = self.hypergraph
            labels = g.labels_view()
            for i in g.node_indices():
                a = labels[i]
                members_a = h.edge_members(a)
                for j in g.adjacency_view()[i]:
                    if i < j:
                        b = labels[j]
                        cache[(a, b)] = members_a & h.edge_members(b)
            self._shared_cache = cache
        return self._shared_cache

    def shared(self, a: EdgeName, b: EdgeName) -> frozenset[Vertex]:
        """H-vertices shared by hyperedges ``a`` and ``b`` (empty if none)."""
        try:
            return self.hypergraph.edge_members(a) & self.hypergraph.edge_members(b)
        except HypergraphError:
            return frozenset()

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:
        return f"IntersectionGraph(hypergraph={self.hypergraph!r}, graph={self.graph!r})"


def _dual_adjacency(index: HypergraphIndex) -> tuple[list[set[int]], list[int]]:
    """``(adj, slots)``: each edge row's neighbour rows in the dual, and ``range(rows)``.

    Row ``x``'s set receives, for each pin ``v`` of ``x`` in ascending
    vertex id, the other rows incident to ``v`` in ascending order.  One
    two-hop gather lists that sequence for every row at once; ``set.add``
    then consumes it chunk by chunk, with each neighbour given as the
    shared int object of ``slots``.
    """
    slots = list(range(index.num_edges))
    adj = [set() for _ in slots]
    inc_ptr, inc_rows = index.incidence_table()
    degrees, nbrs = gather_rows(inc_ptr, inc_rows, index.pins)
    owners = np.repeat(index.pin_edge, degrees)
    other = nbrs != owners
    owners, nbrs = owners[other], nbrs[other]
    for lo in range(0, len(nbrs), _CHUNK):
        hi = lo + _CHUNK
        deque(
            map(
                set.add,
                map(adj.__getitem__, owners[lo:hi].tolist()),
                map(slots.__getitem__, nbrs[lo:hi].tolist()),
            ),
            maxlen=0,
        )
    return adj, slots


def intersection_graph(hypergraph: Hypergraph) -> IntersectionGraph:
    """Build the intersection graph ``G`` dual to ``hypergraph``.

    Every hyperedge becomes a G-node, even isolated ones (single-pin nets
    or nets sharing no module with any other net become isolated G-nodes).
    G-node slot ``i`` is the index's edge row ``i``.

    Examples
    --------
    Figure 1 of the paper — edges A={1,2,3}, B={3,4}, C={4,5,6},
    D={6,7}, E={7,8} form a path A-B-C-D-E in G::

        >>> h = Hypergraph(edges={"A": [1, 2, 3], "B": [3, 4], "C": [4, 5, 6],
        ...                       "D": [6, 7], "E": [7, 8]})
        >>> ig = intersection_graph(h)
        >>> sorted(ig.graph.neighbors("C"), key=str)
        ['B', 'D']
    """
    index = HypergraphIndex(hypergraph)
    adj, slots = _dual_adjacency(index)
    g = Graph.from_rows(hypergraph.edge_names, index.edge_weights.tolist(), adj, slots)
    # Build every per-run table while still inside the dualize phase, so
    # their cost is attributed here and never to a start: the CSR
    # snapshot (BFS, boundary, G') and the repr ranks (Complete-Cut
    # tie-break); the index (steps 4-6) is already built.
    g.csr()
    g.repr_ranks()
    return IntersectionGraph(hypergraph, g, index)
