"""The bipartite boundary graph ``G'`` of Section 2.2.

Given a graph cut of the intersection graph ``G`` with boundary sets
``B_L`` and ``B_R``, the *boundary graph* ``G'`` is the subgraph of ``G``
induced by ``B = B_L ∪ B_R`` with all intra-side edges deleted — only
edges between ``B_L`` and ``B_R`` survive, so ``G'`` is bipartite by
construction.

In the optimal completion of the hypergraph partition each node of ``G'``
(a hyperedge of ``H``) either crosses the final cut (*loser*) or has all
its modules on one side (*winner*).  The Fact driving Complete-Cut: if a
boundary node is a winner, every node adjacent to it in ``G'`` must be a
loser — minimizing losers therefore minimizes the completion's cutsize.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.core.dual_cut import GraphCut, LazyLabels, label_field, slots_of
from repro.core.graph import Graph

Node = Hashable


class BoundaryGraph(LazyLabels):
    """The bipartite graph ``G'`` over the boundary set.

    Attributes
    ----------
    graph:
        Nodes are exactly ``B_L ∪ B_R``; edges only run between the two
        sides (intra-side intersections of ``G`` are dropped).
    left, right:
        The two color classes ``B_L`` and ``B_R``.

    Made by :func:`boundary_graph`, it is index-backed: ``G'`` is the
    boundary slots of ``G`` plus the cross-side entries of ``G``'s CSR,
    and the three attributes above are built on first read.
    It can also be built from a :class:`Graph` and its two color classes.
    """

    left = label_field(0)
    right = label_field(1)

    def __init__(self, graph: Graph, left: Iterable[Node], right: Iterable[Node]) -> None:
        self._graph = graph
        self._sets = (frozenset(left), frozenset(right))
        self._arrays = None

    @classmethod
    def from_cut(
        cls, base: Graph, side: np.ndarray, slots: np.ndarray, cross: np.ndarray
    ) -> "BoundaryGraph":
        """``G'`` as ``base``'s boundary ``slots`` and its ``cross`` CSR entries."""
        bg = cls.__new__(cls)
        bg._graph, bg._arrays = None, (base, side, slots, cross)
        return bg

    def arrays(self) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
        """``(base, side, slots, cross)``: ``G'`` over a base graph's slots.

        ``slots`` are ``G'``'s nodes as ascending base slots, ``side``
        gives each base slot's color class (0 left, 1 right), and
        ``cross`` marks the base CSR entries that are edges of ``G'``.
        """
        if self._arrays is None:
            g = self._graph
            side = np.full(g.num_nodes, -1, dtype=np.int8)
            for s, nodes in enumerate(self._sets):
                side[slots_of(g, nodes)] = s
            csr = g.csr()
            owner = np.repeat(np.arange(g.num_nodes), csr.degrees())
            cross = (side[csr.indices] >= 0) & (side[owner] >= 0)
            self._arrays = (g, side, np.flatnonzero(side >= 0), cross)
        return self._arrays

    def cross_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, neighbors)`` base slots of every ``G'`` edge entry, by owner."""
        base, _, _, cross = self.arrays()
        csr = base.csr()
        entries = np.flatnonzero(cross)
        owners = np.searchsorted(csr.indptr, entries, side="right") - 1
        return owners, csr.indices[entries]

    def _build_sets(self) -> tuple:
        base, side, slots, _ = self.arrays()
        labels = base.labels_view()
        return tuple(frozenset(labels[i] for i in slots[side[slots] == s].tolist()) for s in (0, 1))

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            base, side, slots, _ = self.arrays()
            labels = base.labels_view()
            weights = base.weights_view()
            nodes = {
                labels[i]: weights[i] for s in (0, 1) for i in slots[side[slots] == s].tolist()
            }
            owners, nbrs = self.cross_entries()
            from_left = side[owners] == 0
            edges = [
                (labels[a], labels[b])
                for a, b in zip(owners[from_left].tolist(), nbrs[from_left].tolist())
            ]
            self._graph = Graph(nodes, edges)
        return self._graph

    @property
    def nodes(self) -> frozenset[Node]:
        return self.left | self.right

    def side_of(self, node: Node) -> str:
        if node in self.left:
            return "L"
        if node in self.right:
            return "R"
        raise KeyError(f"node {node!r} not on the boundary")

    def is_trivial(self) -> bool:
        """True when ``G'`` has no edges (nothing can be forced to lose)."""
        return not self.arrays()[3].any()


def boundary_graph(graph: Graph, cut: GraphCut) -> BoundaryGraph:
    """Build ``G'`` from the full intersection graph and a cut of it.

    Only adjacency *across* the cut is retained: an edge of ``G`` between
    two boundary nodes on the same side does not force a winner/loser
    relation and is deleted, exactly as in the paper.  No graph is
    built: ``G'`` is the cut's cross mask over ``graph``'s CSR entries.
    """
    side, on_boundary, cross = cut.arrays(graph)
    return BoundaryGraph.from_cut(graph, side, np.flatnonzero(on_boundary), cross)
