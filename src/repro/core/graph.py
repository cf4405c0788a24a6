"""Plain undirected graphs and the BFS machinery Algorithm I is built on.

The dual intersection graph ``G`` and the bipartite boundary graph ``G'``
are both instances of :class:`Graph`.  A graph is frozen once built: its
constructor and :meth:`Graph.from_rows` are the only builders, and
nothing adds or removes a node or an edge afterwards.  The public API is
label-based (nodes are arbitrary hashables), but internally every label
is *interned* to a contiguous integer slot, ``0 .. num_nodes - 1`` in
insertion order; adjacency is stored as ``list[set[int]]`` indexed by
slot.  Every traversal (BFS levels, pseudo-diameter search, components)
runs in index space on one BFS, the level-synchronous walk over the
graph's CSR arrays (:mod:`repro.core.csr`), which are built once, on
first use — no per-call ``frozenset`` copies, no label hashing inside
the inner loops.
EXPERIMENTS.md reads the runtime ratio Algorithm I : SA : KL as
1 : 1.48 : 2.76 from ``BENCH_pr18.json``'s traced engines-1k pair; the
paper reports 1 : 110 : 120.  A side benefit of the integer core:
small-int hashing is not randomized, so BFS visit orders (and therefore
tie-breaks) are reproducible across processes even for string-labelled
graphs.

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
* :meth:`Graph.node_indices` — the slots, ``0 .. num_nodes - 1``.
* :meth:`Graph.adjacency_view` / :meth:`Graph.labels_view` /
  :meth:`Graph.weights_view` — zero-copy handles on the internal arrays.
  Callers must treat them as read-only.
* :meth:`Graph.neighbors_view` — lazy neighbor-label iteration without
  building a set.
* :meth:`Graph.bfs_order_from` — BFS in index space: the visit order and
  the distances.
* :meth:`Graph.csr` / :meth:`Graph.repr_ranks` — the CSR arrays and the
  per-slot ``repr`` ranks, each built once, on first use.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping
from typing import Iterator

import numpy as np

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
        self._adj: list[set[int]] = []  # slot -> adjacent slots
        self._csr: CSRAdjacency | None = None  # built on first use
        self._ranks: np.ndarray | None = None  # built on first use
        if isinstance(nodes, Mapping):
            for v, w in nodes.items():
                if w <= 0:
                    raise GraphError(f"node weight must be positive, got {w!r}")
                self._slot(v, float(w))
        elif nodes is not None:
            for v in nodes:
                self._slot(v)
        count = 0
        adj = self._adj
        for u, v in edges if edges is not None else ():
            if u == v:
                raise GraphError(f"self-loop at {u!r} not allowed")
            iu, iv = self._slot(u), self._slot(v)
            if iv not in adj[iu]:
                adj[iu].add(iv)
                adj[iv].add(iu)
                count += 1
        self._edge_count = count

    def _slot(self, v: Node, weight: float = 1.0) -> int:
        """The slot of ``v``; a new node takes the next slot and ``weight``."""
        i = self._index.get(v)
        if i is None:
            i = self._index[v] = len(self._labels)
            self._labels.append(v)
            self._weights.append(weight)
            self._adj.append(set())
        return i

    @classmethod
    def from_rows(
        cls, labels: list[Node], weights: list[float], adj: list[set[int]], slots: list[int]
    ) -> "Graph":
        """The graph whose slot ``i`` holds ``labels[i]``, ``weights[i]`` and ``adj[i]``.

        ``slots`` is ``list(range(len(labels)))``; its int objects become
        the label index's values, which ``adj``'s sets should hold too so
        each slot number is stored once.  The caller guarantees distinct
        labels, positive weights and a symmetric, loop-free ``adj``; the
        lists are taken, not copied.
        """
        g = cls()
        g._index = dict(zip(labels, slots))
        g._labels = labels
        g._weights = weights
        g._adj = adj
        g._edge_count = sum(map(len, adj)) // 2
        return g

    # ------------------------------------------------------------------
    # per-graph tables, built once
    # ------------------------------------------------------------------

    def csr(self) -> CSRAdjacency:
        """The graph's :class:`repro.core.csr.CSRAdjacency`, built on first use.

        The CSR freezes the *exact* neighbor iteration order of the
        internal sets, so its rows list each node's neighbors in the order
        a loop over :meth:`adjacency_view` would.  Each call after the
        first counts a ``graph.csr.reuses``; the graph's own traversals
        read it without counting.
        """
        if self._csr is not None:
            obs.count("graph.csr.reuses")
        return self._snapshot()

    def _snapshot(self) -> CSRAdjacency:
        if self._csr is None:
            self._csr = CSRAdjacency.from_graph(self)
            obs.count("graph.csr.builds")
        return self._csr

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

    def node_indices(self) -> Iterable[int]:
        """Every slot, ``0 .. num_nodes - 1``: the label index's own int objects."""
        return self._index.values()

    def adjacency_view(self) -> list[set[int]]:
        """The internal slot-indexed adjacency — read-only, zero-copy."""
        return self._adj

    def labels_view(self) -> list[Node]:
        """The internal slot -> label array — read-only, zero-copy."""
        return self._labels

    def weights_view(self) -> list[float]:
        """The internal slot -> weight array — read-only, zero-copy."""
        return self._weights

    def neighbors_view(self, v: Node) -> Iterator[Node]:
        """Lazily iterate the neighbor labels of ``v`` without copying."""
        labels = self._labels
        return (labels[j] for j in self._adj[self.index_of(v)])

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
        return self._edge_count

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
        return iu is not None and iv is not None and iv in self._adj[iu]

    def degree(self, v: Node) -> int:
        return len(self._adj[self.index_of(v)])

    def node_weight(self, v: Node) -> float:
        return self._weights[self.index_of(v)]

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Each undirected edge yielded exactly once."""
        labels = self._labels
        for i, row in enumerate(self._adj):
            li = labels[i]
            for j in row:
                if i < j:
                    yield (li, labels[j])

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
        order, dist = self._snapshot().bfs(source)
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
        found by one BFS from that node.
        """
        seen = np.zeros(len(self._labels), dtype=bool)
        left = len(self._labels)
        out = []
        for i in range(len(self._labels)):
            if not left:
                break
            if seen[i]:
                continue
            order = self.bfs_order_from(i)[0].astype(np.int64)
            seen[order] = True
            left -= len(order)
            out.append(order)
        return out

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
        adj = self._adj
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

    def min_degree_node(self, candidates: Iterable[Node] | None = None) -> Node:
        """A node of minimum degree (deterministic: ties by ``repr``).

        Unknown candidates raise :class:`GraphError` like every other
        query path — not a raw ``KeyError``.
        """
        pool = self._labels if candidates is None else list(candidates)
        if not pool:
            raise GraphError("no candidates")
        return min(pool, key=lambda v: (self.degree(v), repr(v)))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
