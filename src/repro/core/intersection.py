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

from collections.abc import Hashable, Iterable
from itertools import chain

import numpy as np

from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.partition import Bipartition

EdgeName = Hashable
Vertex = Hashable


def _pin_table(
    hypergraph: Hypergraph, names: Iterable[EdgeName], vertex_id: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ptr, pins, pin_edge)``: each named edge's pins as ascending vertex ids.

    Row ``e`` is ``pins[ptr[e]:ptr[e + 1]]``; ``pin_edge`` repeats each row
    number once per pin.  Sorting the rows makes every walk over them
    independent of frozenset iteration order (and so of
    ``PYTHONHASHSEED`` for str labels).
    """
    members = list(map(hypergraph.edge_members, names))
    sizes = np.fromiter(map(len, members), count=len(members), dtype=np.int64)
    ptr = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    try:
        pins = np.fromiter(
            map(vertex_id.__getitem__, chain.from_iterable(members)),
            count=int(ptr[-1]),
            dtype=np.int64,
        )
    except KeyError as exc:
        raise HypergraphError(f"pin {exc.args[0]!r} is not an indexed vertex") from None
    pin_edge = np.repeat(np.arange(len(members), dtype=np.int64), sizes)
    # Rows are contiguous, so sorting (row, pin) keys sorts within rows.
    offset = pin_edge * max(len(vertex_id), 1)
    return ptr, np.sort(offset + pins) - offset, pin_edge


class DualIndex:
    """Integer tables of a hypergraph for the per-start steps of Algorithm I.

    Built once per run by :func:`intersection_graph`.  Vertex ids are
    positions in ``hypergraph.vertices``; edge rows are the dual's slots
    (G interns the edges in ``edge_names`` order, so slot ``s`` is the
    ``s``-th edge).  Per start, projection, winner-pin commit, balance
    and the cut all run on an int8 vertex-side array (0 left, 1 right,
    -1 unplaced) over these tables; only the winning start's array is
    turned back into labels.

    ``lpt_order`` lists the vertex ids heaviest first, ties by ``repr``
    (the leftover-balance order), and ``lightest`` is the id minimising
    ``(weight, repr)`` (the donor when a side comes out empty).
    """

    __slots__ = (
        "hypergraph", "vertices", "weights", "pin_ptr", "pins", "pin_edge",
        "edge_weights", "lpt_order", "lightest", "_vertex_id", "_pin_lists",
        "_cut_cache",
    )

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph = hypergraph
        vertices = hypergraph.vertices
        self.vertices = vertices
        self._vertex_id = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        self.weights = np.fromiter(map(hypergraph.vertex_weight, vertices), np.float64, n)
        names = hypergraph.edge_names
        self.pin_ptr, self.pins, self.pin_edge = _pin_table(hypergraph, names, self._vertex_id)
        self.edge_weights = np.fromiter(map(hypergraph.edge_weight, names), np.float64, len(names))
        # np.lexsort is stable, so (weight, repr) ties keep vertex order.
        reprs = np.array([repr(v) for v in vertices], dtype=str)
        self.lpt_order = np.lexsort((reprs, -self.weights))
        self.lightest = int(np.lexsort((reprs, self.weights))[0]) if n else -1
        self._pin_lists = None
        self._cut_cache = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def pin_lists(self) -> tuple[list[int], list[int]]:
        """``(ptr, pins)`` as python lists, for sequential per-pin walks."""
        if self._pin_lists is None:
            self._pin_lists = (self.pin_ptr.tolist(), self.pins.tolist())
        return self._pin_lists

    def cut_table(
        self, original: Hypergraph
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ptr, pins, pin_edge, edge_weights)`` over ``original``'s edges.

        ``original`` is the hypergraph the cut is scored against: this
        index's own hypergraph, or the unfiltered one it was filtered
        from (same vertices, and every edge of this one plus the
        filtered-out ones).  The latter's table appends rows for the
        filtered-out edges; it is built on first use and kept.
        """
        if original is self.hypergraph:
            return self.pin_ptr, self.pins, self.pin_edge, self.edge_weights
        cached = self._cut_cache
        if cached is None or cached[0] is not original:
            working = self.hypergraph
            extra = [name for name in original.edge_names if not working.has_edge(name)]
            if len(extra) + working.num_edges != original.num_edges:
                raise HypergraphError("the scored hypergraph lacks edges of the indexed one")
            ptr, pins, pin_edge = _pin_table(original, extra, self._vertex_id)
            weights = np.fromiter(map(original.edge_weight, extra), np.float64, len(extra))
            rows = len(self.edge_weights)
            table = (
                np.concatenate((self.pin_ptr, ptr[1:] + self.pin_ptr[-1])),
                np.concatenate((self.pins, pins)),
                np.concatenate((self.pin_edge, pin_edge + rows)),
                np.concatenate((self.edge_weights, weights)),
            )
            cached = self._cut_cache = (original, table)
        return cached[1]

    def sides_of(self, left: Iterable[Vertex], right: Iterable[Vertex]) -> np.ndarray:
        """The int8 vertex-side array of two label sets (unlisted vertices -1)."""
        vid = self._vertex_id
        sides = np.full(len(self.vertices), -1, dtype=np.int8)
        try:
            for side, labels in ((0, left), (1, right)):
                sides[np.fromiter((vid[v] for v in labels), dtype=np.int64)] = side
        except KeyError as exc:
            raise HypergraphError(f"no such vertex {exc.args[0]!r}") from None
        return sides

    def labels_of(self, sides: np.ndarray, side: int) -> set[Vertex]:
        """Labels of the vertices on ``side`` of a vertex-side array, as a set."""
        vertices = self.vertices
        return {vertices[i] for i in np.flatnonzero(sides == side).tolist()}

    def bipartition(self, original: Hypergraph, sides: np.ndarray) -> Bipartition:
        """The :class:`Bipartition` of ``original`` a full side array describes."""
        # Sets, not lists: frozenset(set) sizes its table for the final
        # count, frozenset(list) grows it by insertion to twice that.
        return Bipartition(original, self.labels_of(sides, 0), self.labels_of(sides, 1))


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
        The per-run :class:`DualIndex` of ``hypergraph``.
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
        self.index = DualIndex(hypergraph)
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
    # tie-break) and the hypergraph's DualIndex (steps 4-6).
    g.csr()
    g.repr_ranks()
    return IntersectionGraph(hypergraph=hypergraph, graph=g)
