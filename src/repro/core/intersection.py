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
incident rows) lists every ``(row, neighbour row)`` pair, and
:meth:`Graph.from_rows` turns those pairs into the CSR, each row's
neighbours in ascending slot order, two nets sharing several modules
joined once.  Pair identity is the slot, never a label or its ``repr``:
two *distinct* edge names with an identical ``repr`` are never
conflated.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.core.csr import gather_rows
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
    index:
        The :class:`~repro.core.index.HypergraphIndex` of
        ``hypergraph`` the dual was built from; Algorithm I's per-start
        steps run on its tables.
    """

    __slots__ = ("hypergraph", "graph", "index")

    def __init__(self, hypergraph: Hypergraph, graph: Graph, index: HypergraphIndex) -> None:
        self.hypergraph = hypergraph
        self.graph = graph
        self.index = index

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


def _dual_pairs(index: HypergraphIndex) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, nbrs)``: every pair of distinct edge rows sharing a pin, per shared pin.

    One two-hop gather: each pin of each edge row, then every row
    incident to that pin.  A pair appears once per module the two rows
    share, and both ways round.
    """
    inc_ptr, inc_rows = index.incidence_table()
    degrees, nbrs = gather_rows(inc_ptr, inc_rows, index.pins)
    rows = np.repeat(index.pin_edge, degrees)
    other = nbrs != rows
    return rows[other], nbrs[other]


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
    g = Graph.from_rows(hypergraph.edge_names, index.edge_weights.tolist(), *_dual_pairs(index))
    # Build every table the starts read while still inside the dualize
    # phase, so their cost is attributed here and never to a start: the
    # row lists (the double-BFS race) and the repr ranks (Complete-Cut
    # tie-break); the CSR (BFS, boundary, G') and the index (steps 4-6)
    # are built.
    g.row_lists()
    g.repr_ranks()
    return IntersectionGraph(hypergraph, g, index)
