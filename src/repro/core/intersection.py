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

The per-vertex clique loop runs entirely on interned integer node ids
(:meth:`repro.core.graph.Graph.add_clique`): no ``repr`` calls, no
string-keyed dict probes.  Pair identity is defined by the stable total
order on interned indices — two *distinct* edge names with an identical
``repr`` (possible for arbitrary hashable labels) are therefore never
conflated, which the old ``repr(a) <= repr(b)`` keying could not
guarantee.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.index import HypergraphIndex

EdgeName = Hashable
Vertex = Hashable


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
        ``hypergraph``; Algorithm I's per-start steps run on its tables.
    """

    __slots__ = ("hypergraph", "graph", "index", "_shared_cache")

    def __init__(
        self,
        hypergraph: Hypergraph,
        graph: Graph,
        shared_vertices: dict[tuple[EdgeName, EdgeName], frozenset[Vertex]] | None = None,
    ) -> None:
        self.hypergraph = hypergraph
        self.graph = graph
        self.index = HypergraphIndex(hypergraph)
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


def intersection_graph(hypergraph: Hypergraph) -> IntersectionGraph:
    """Build the intersection graph ``G`` dual to ``hypergraph``.

    Every hyperedge becomes a G-node, even isolated ones (single-pin nets
    or nets sharing no module with any other net become isolated G-nodes).

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
    g = Graph()
    for name in hypergraph.edge_names:
        g.add_vertex(name, weight=hypergraph.edge_weight(name))
    for v in hypergraph.vertices:
        incident = hypergraph.incident_edges_view(v)
        if len(incident) > 1:
            g.add_clique(incident)
    # Build every per-run table while still inside the dualize phase, so
    # their cost is attributed here and never to a start: the CSR
    # snapshot (BFS, boundary, G'), the repr ranks (Complete-Cut
    # tie-break) and the hypergraph's index (steps 4-6).
    g.csr()
    g.repr_ranks()
    return IntersectionGraph(hypergraph=hypergraph, graph=g)
