"""Plain undirected graphs and the BFS machinery Algorithm I is built on.

The dual intersection graph ``G`` and the bipartite boundary graph ``G'``
are both instances of :class:`Graph`.  A graph is frozen once built: its
constructor and :meth:`Graph.from_rows` are the only builders, and
nothing adds or removes a node or an edge afterwards.  The public API is
label-based (nodes are arbitrary hashables), but internally every label
is *interned* to a contiguous integer slot, ``0 .. num_nodes - 1`` in
insertion order, and the adjacency is one CSR (:mod:`repro.core.csr`)
whose rows list each node's neighbors in ascending slot order, built
once, at construction.  That order is the definition every traversal
follows: BFS levels, pseudo-diameter search, components and the
double-BFS race depend on the slot numbering and the edge set alone,
never on the order the edges were listed in.  No traversal hashes a
label or copies a neighbor set inside its inner loop.

Exposed traversals are exactly what the paper needs:

* single-source BFS levels (for longest-BFS-path / pseudo-diameter),
* exact eccentricity and diameter by all-pairs BFS (used by the analysis
  package to validate the paper's "BFS depth = diam(G) - O(1)" theorem on
  graphs small enough to afford it),
* connected components (the ``c = 0`` pathological case of Section 4 is
  detected as disconnectedness of ``G``),
* bipartiteness check with 2-coloring (the boundary graph is bipartite by
  construction; tests assert it through this).

Index-path API (for the core pipeline; everything else should stick to
the label API):

* :meth:`Graph.index_of` / :meth:`Graph.label_of` — label <-> slot.
* :meth:`Graph.labels_view` / :meth:`Graph.weights_view` — zero-copy
  handles on the internal arrays.  Callers must treat them as read-only.
* :meth:`Graph.neighbors_view` — lazy neighbor-label iteration without
  building a set.
* :meth:`Graph.bfs_order_from` — BFS in index space: the visit order and
  the distances.
* :meth:`Graph.csr` — the CSR arrays; :meth:`Graph.row_lists` — the same
  rows as python lists, for the sequential walks; :meth:`Graph.repr_ranks`
  — the per-slot ``repr`` ranks.  The last two are built once, on first
  use.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping
from typing import Iterator

import numpy as np
from numpy.typing import ArrayLike

from repro import obs
from repro.core.csr import CSRAdjacency

Node = Hashable


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class Graph:
    """Simple undirected graph with optional node weights, frozen once built.

    ``nodes`` lists the nodes, or maps each to its weight (1.0 when not
    given; non-positive weights are rejected, matching
    ``Hypergraph.add_vertex``).  ``edges`` then joins each pair: an
    endpoint not listed yet is added with weight 1.0, a listed one keeps
    its weight.  Self-loops are rejected (they are meaningless for cuts)
    and parallel edges collapse.
    """

    def __init__(
        self,
        nodes: Iterable[Node] | Mapping[Node, float] | None = None,
        edges: Iterable[tuple[Node, Node]] | None = None,
    ) -> None:
        self._index: dict[Node, int] = {}  # label -> slot, insertion-ordered
        self._labels: list[Node] = []  # slot -> label
        self._weights: list[float] = []  # slot -> weight
        if isinstance(nodes, Mapping):
            for v, w in nodes.items():
                if w <= 0:
                    raise GraphError(f"node weight must be positive, got {w!r}")
                self._slot(v, float(w))
        elif nodes is not None:
            for v in nodes:
                self._slot(v)
        us: list[int] = []
        vs: list[int] = []
        for u, v in edges if edges is not None else ():
            if u == v:
                raise GraphError(f"self-loop at {u!r} not allowed")
            us.append(self._slot(u))
            vs.append(self._slot(v))
        self._freeze(us + vs, vs + us)

    def _slot(self, v: Node, weight: float = 1.0) -> int:
        """The slot of ``v``; a new node takes the next slot and ``weight``."""
        i = self._index.get(v)
        if i is None:
            i = self._index[v] = len(self._labels)
            self._labels.append(v)
            self._weights.append(weight)
        return i

    @classmethod
    def from_rows(
        cls, labels: list[Node], weights: list[float], rows: ArrayLike, cols: ArrayLike
    ) -> "Graph":
        """The graph whose slot ``i`` holds ``labels[i]`` and ``weights[i]``.

        Slot ``rows[k]`` is adjacent to slot ``cols[k]``; the caller lists
        each edge both ways (repeats collapse) and guarantees distinct
        labels, positive weights and no loop.  ``labels`` and ``weights``
        are taken, not copied.
        """
        g = cls.__new__(cls)
        g._index = dict(zip(labels, range(len(labels))))
        g._labels = labels
        g._weights = weights
        g._freeze(rows, cols)
        return g

    def _freeze(self, rows: ArrayLike, cols: ArrayLike) -> None:
        self._csr = CSRAdjacency.from_pairs(len(self._labels), rows, cols)
        self._rows: list[list[int]] | None = None  # built on first use
        self._ranks: np.ndarray | None = None  # built on first use
        obs.count("graph.csr.builds")

    # ------------------------------------------------------------------
    # per-graph tables
    # ------------------------------------------------------------------

    def csr(self) -> CSRAdjacency:
        """The graph's :class:`repro.core.csr.CSRAdjacency`.

        Each call counts a ``graph.csr.reuses``; the graph's own
        traversals read the CSR without counting.
        """
        obs.count("graph.csr.reuses")
        return self._csr

    def row_lists(self) -> list[list[int]]:
        """Each slot's CSR row as a python list of slots, built on first use.

        The view for the sequential walks (the double-BFS race,
        components, the 2-coloring), which would otherwise pay a numpy
        scalar read per neighbor.  One list per row, not slices of one
        flat list: the race then reads a row without copying it, about
        a sixth faster per start on 10k-module duals.  Read-only.
        """
        if self._rows is None:
            flat = self._csr.indices.tolist()
            bounds = self._csr.indptr.tolist()
            self._rows = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return self._rows

    def repr_ranks(self) -> np.ndarray:
        """Per-slot rank of each node in ``repr`` order (ties by slot), int64.

        Complete-Cut's tie-break as one integer per node, so its heap
        keys need no string comparisons.  Built on first use.
        """
        if self._ranks is None:
            reprs = np.array([repr(v) for v in self._labels], dtype=str)
            ranks = np.empty(len(reprs), dtype=np.int64)
            ranks[np.argsort(reprs, kind="stable")] = np.arange(len(reprs), dtype=np.int64)
            self._ranks = ranks
        return self._ranks

    # ------------------------------------------------------------------
    # index-path API (zero-copy access for the core pipeline)
    # ------------------------------------------------------------------

    def index_of(self, v: Node) -> int:
        """The interned slot of ``v``."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None

    def label_of(self, i: int) -> Node:
        """The label stored at slot ``i``."""
        return self._labels[i]

    def labels_view(self) -> list[Node]:
        """The internal slot -> label array — read-only, zero-copy."""
        return self._labels

    def weights_view(self) -> list[float]:
        """The internal slot -> weight array — read-only, zero-copy."""
        return self._weights

    def neighbors_view(self, v: Node) -> Iterator[Node]:
        """Lazily iterate the neighbor labels of ``v``, in slot order, without a set."""
        return map(self._labels.__getitem__, self._row(self.index_of(v)).tolist())

    def _row(self, i: int) -> np.ndarray:
        """Slot ``i``'s CSR row: its neighbors' slots, ascending."""
        indptr = self._csr.indptr
        return self._csr.indices[indptr[i] : indptr[i + 1]]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._labels)

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._csr.indices) // 2

    def __contains__(self, v: Node) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._labels)

    def neighbors(self, v: Node) -> frozenset[Node]:
        return frozenset(self.neighbors_view(v))

    def has_edge(self, u: Node, v: Node) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        row = self._row(iu)
        k = int(np.searchsorted(row, iv))
        return k < len(row) and int(row[k]) == iv

    def degree(self, v: Node) -> int:
        return len(self._row(self.index_of(v)))

    def node_weight(self, v: Node) -> float:
        return self._weights[self.index_of(v)]

    def max_degree(self) -> int:
        return int(self._csr.degrees().max(initial=0))

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Each undirected edge yielded exactly once, by lower slot, then upper."""
        csr = self._csr
        owners = np.repeat(np.arange(len(self._labels)), csr.degrees())
        upper = owners < csr.indices
        label = self._labels.__getitem__
        return zip(map(label, owners[upper].tolist()), map(label, csr.indices[upper].tolist()))

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def bfs_order_from(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """BFS from slot ``source``: ``(order, dist)``.

        ``order`` holds the reached slots in visit order and ``dist`` each
        slot's hop distance from ``source``, valid only at the slots in
        ``order``.  Both are fresh arrays, so results of consecutive calls
        may be held side by side.
        """
        order, dist = self._csr.bfs(source)
        obs.count("graph.bfs.calls")
        obs.count("graph.bfs.nodes_visited", len(order))
        return order, dist

    def bfs_levels(self, source: Node) -> dict[Node, int]:
        """Distance (in hops) from ``source`` to every reachable node."""
        order, dist = self.bfs_order_from(self.index_of(source))
        return dict(zip(map(self._labels.__getitem__, order.tolist()), dist[order].tolist()))

    def bfs_farthest(self, source: Node, rng: random.Random | None = None) -> tuple[Node, int]:
        """A node at maximum BFS distance from ``source`` and that distance.

        Ties among deepest nodes are broken uniformly at random when a
        ``rng`` is supplied (the paper starts BFS "from a random vertex"
        and we extend the randomness to the far endpoint so that repeated
        multi-start runs explore distinct diameters).
        """
        order, dist = self.bfs_order_from(self.index_of(source))
        # BFS visit order is non-decreasing in distance: the deepest nodes
        # are exactly the tail block of the order, found by binary search.
        dist = dist[order]
        depth = int(dist[-1])
        lo = int(np.searchsorted(dist, depth, side="left"))
        if rng is None:
            far = order[lo]
        else:
            far = order[lo + rng.randrange(len(order) - lo)]
        return self._labels[int(far)], depth

    def eccentricity(self, v: Node) -> int:
        """Max BFS distance from ``v`` within its component."""
        order, dist = self.bfs_order_from(self.index_of(v))
        return int(dist[order[-1]])

    def diameter(self) -> int:
        """Exact diameter by all-pairs BFS. O(V * (V + E)) — small graphs only.

        Raises :class:`GraphError` on a disconnected or empty graph.
        """
        n = len(self._labels)
        if not n:
            raise GraphError("diameter of empty graph is undefined")
        best = 0
        for i in range(n):
            order, dist = self.bfs_order_from(i)
            if len(order) != n:
                raise GraphError("diameter of disconnected graph is undefined")
            best = max(best, int(dist[order[-1]]))
        return best

    def component_slots(self) -> list[np.ndarray]:
        """The slots of each connected component, as int64 arrays in BFS order.

        Components come in the insertion order of their first node, each
        listed in BFS order from that node.  One FIFO walk over
        :meth:`row_lists` finds them all: each component's walk starts at
        the first slot no earlier one reached.
        """
        rows = self.row_lists()
        seen = [False] * len(rows)
        order: list[int] = []
        bounds = [0]
        for root in range(len(rows)):
            if seen[root]:
                continue
            seen[root] = True
            order.append(root)
            head = bounds[-1]
            while head < len(order):
                for u in rows[order[head]]:
                    if not seen[u]:
                        seen[u] = True
                        order.append(u)
                head += 1
            bounds.append(len(order))
        flat = np.array(order, dtype=np.int64)
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def connected_components(self) -> list[set[Node]]:
        labels = self._labels
        return [set(map(labels.__getitem__, c.tolist())) for c in self.component_slots()]

    def is_connected(self) -> bool:
        n = len(self._labels)
        return not n or len(self.bfs_order_from(0)[0]) == n

    def is_bipartite(self) -> tuple[bool, dict[Node, int]]:
        """2-colorability check.

        Returns ``(True, coloring)`` with colors in {0, 1}, or
        ``(False, partial_coloring)`` when an odd cycle exists.
        """
        labels = self._labels
        adj = self.row_lists()
        color: dict[int, int] = {}
        for start in range(len(labels)):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                cv = color[v]
                for u in adj[v]:
                    cu = color.get(u)
                    if cu is None:
                        color[u] = 1 - cv
                        queue.append(u)
                    elif cu == cv:
                        return False, {labels[i]: c for i, c in color.items()}
        return True, {labels[i]: c for i, c in color.items()}

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
