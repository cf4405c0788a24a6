"""Plain undirected graphs and the BFS machinery Algorithm I is built on.

The dual intersection graph ``G`` and the bipartite boundary graph ``G'``
are both instances of :class:`Graph`.  The public API is label-based
(nodes are arbitrary hashables), but internally every label is *interned*
to a contiguous integer slot on first insertion; adjacency is stored as
``list[set[int]]`` indexed by slot.  The traversal hot paths (BFS levels,
pseudo-diameter search, double-BFS cuts, boundary extraction) run
entirely in index space over reusable scratch buffers — no per-call
``frozenset`` copies, no label hashing inside the inner loops.
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
* :meth:`Graph.node_indices` — alive slots in insertion order.
* :meth:`Graph.adjacency_view` / :meth:`Graph.labels_view` — zero-copy
  handles on the internal arrays.  Callers must treat them as read-only
  and must not hold them across mutations.
* :meth:`Graph.neighbors_view` — lazy neighbor-label iteration without
  building a set.
* :meth:`Graph.bfs_order_from` — BFS in index space with reusable
  distance/visited buffers.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping
from typing import Iterator

from repro import obs

Node = Hashable

#: Edge count at which traversals switch from the pure-python set walk to
#: the vectorized CSR path (:mod:`repro.core.csr`).  Below it the numpy
#: per-level fixed costs exceed the win; above it the flat-array frontier
#: expansion dominates.  Both paths are element-for-element identical
#: (the CSR snapshot freezes the exact set iteration order), so the
#: threshold is a pure performance knob — tests pin the equivalence.
CSR_MIN_EDGES = 2048


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class Graph:
    """Simple undirected graph with optional node weights.

    Self-loops are rejected (they are meaningless for cuts) and parallel
    edges collapse.
    """

    def __init__(
        self,
        nodes: Iterable[Node] | Mapping[Node, float] | None = None,
        edges: Iterable[tuple[Node, Node]] | None = None,
    ) -> None:
        self._index: dict[Node, int] = {}  # label -> slot, insertion-ordered
        self._labels: list[Node] = []  # slot -> label (stale for freed slots)
        self._weights: list[float] = []  # slot -> weight
        self._adj: list[set[int]] = []  # slot -> adjacent slots
        self._free: list[int] = []  # freed slots available for reuse
        self._edge_count = 0
        # Reusable BFS scratch (stamped visited array avoids per-call clears).
        self._bfs_dist: list[int] = []
        self._bfs_seen: list[int] = []
        self._bfs_stamp = 0
        # Frozen CSR snapshot cache: rebuilt lazily whenever a mutation
        # bumps the version.  ``_active_dist`` is whichever distance
        # buffer the last BFS populated (python list or numpy array).
        self._version = 0
        self._csr = None
        self._csr_version = -1
        self._ranks = None
        self._ranks_version = -1
        self._active_dist = self._bfs_dist
        if nodes is not None:
            if isinstance(nodes, Mapping):
                for v, w in nodes.items():
                    self.add_vertex(v, w)
            else:
                for v in nodes:
                    self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

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
        g._version = 1
        return g

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_vertex(self, v: Node, weight: float | None = None) -> Node:
        """Add ``v`` (idempotent).

        Re-adding an existing vertex *without* an explicit weight
        preserves the stored weight (it used to silently reset it to the
        default 1.0); an explicit weight always updates.  Non-positive
        weights are rejected, matching ``Hypergraph.add_vertex``.
        """
        if weight is not None and weight <= 0:
            raise GraphError(f"node weight must be positive, got {weight!r}")
        i = self._index.get(v)
        if i is None:
            w = 1.0 if weight is None else float(weight)
            if self._free:
                i = self._free.pop()
                self._labels[i] = v
                self._weights[i] = w
                self._adj[i] = set()
            else:
                i = len(self._labels)
                self._labels.append(v)
                self._weights.append(w)
                self._adj.append(set())
            self._index[v] = i
            self._version += 1
        elif weight is not None:
            self._weights[i] = float(weight)
            self._version += 1
        return v

    def add_edge(self, u: Node, v: Node) -> None:
        if u == v:
            raise GraphError(f"self-loop at {u!r} not allowed")
        iu = self._index.get(u)
        if iu is None:
            self.add_vertex(u)
            iu = self._index[u]
        iv = self._index.get(v)
        if iv is None:
            self.add_vertex(v)
            iv = self._index[v]
        if iv not in self._adj[iu]:
            self._adj[iu].add(iv)
            self._adj[iv].add(iu)
            self._edge_count += 1
            self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None or iv not in self._adj[iu]:
            raise GraphError(f"no edge {u!r} -- {v!r}")
        self._adj[iu].discard(iv)
        self._adj[iv].discard(iu)
        self._edge_count -= 1
        self._version += 1

    def remove_vertex(self, v: Node) -> None:
        i = self._index.pop(v, None)
        if i is None:
            raise GraphError(f"no such node {v!r}")
        nbrs = self._adj[i]
        for j in nbrs:
            self._adj[j].discard(i)
        self._edge_count -= len(nbrs)
        self._adj[i] = set()
        self._weights[i] = 0.0
        self._free.append(i)
        self._version += 1

    def copy(self) -> "Graph":
        g = Graph()
        g._index = dict(self._index)
        g._labels = list(self._labels)
        g._weights = list(self._weights)
        g._adj = [set(s) for s in self._adj]
        g._free = list(self._free)
        g._edge_count = self._edge_count
        return g

    # ------------------------------------------------------------------
    # CSR snapshot
    # ------------------------------------------------------------------

    def csr(self):
        """The frozen :class:`repro.core.csr.CSRAdjacency` snapshot.

        Built lazily and cached until the next mutation (every mutator
        bumps an internal version counter).  The snapshot freezes the
        *exact* neighbor iteration order of the internal sets, so the
        vectorized traversals it powers are element-for-element identical
        to the legacy ``list[set[int]]`` walks.
        """
        if self._csr is None or self._csr_version != self._version:
            from repro.core.csr import CSRAdjacency

            self._csr = CSRAdjacency.from_graph(self)
            self._csr_version = self._version
            obs.count("graph.csr.builds")
        else:
            obs.count("graph.csr.reuses")
        return self._csr

    def repr_ranks(self):
        """Per-slot rank of each node in ``repr`` order (ties by slot), int64.

        Complete-Cut's tie-break as one integer per node, so its heap
        keys need no string comparisons.  Freed slots hold -1.  Cached
        like :meth:`csr` until the next mutation.
        """
        if self._ranks is None or self._ranks_version != self._version:
            import numpy as np

            labels = self._labels
            slots = np.fromiter(self._index.values(), np.int64, len(self._index))
            reprs = np.array([repr(labels[i]) for i in slots.tolist()], dtype=str)
            ranks = np.full(len(labels), -1, dtype=np.int64)
            ranks[slots[np.lexsort((slots, reprs))]] = np.arange(len(slots), dtype=np.int64)
            self._ranks = ranks
            self._ranks_version = self._version
        return self._ranks

    def _use_csr(self) -> bool:
        """True when traversals should take the vectorized CSR path."""
        return self._edge_count >= CSR_MIN_EDGES

    # ------------------------------------------------------------------
    # index-path API (zero-copy access for the core pipeline)
    # ------------------------------------------------------------------

    def index_of(self, v: Node) -> int:
        """The interned slot of ``v`` (stable until ``v`` is removed)."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None

    def label_of(self, i: int) -> Node:
        """The label stored at slot ``i`` (must be an alive slot)."""
        return self._labels[i]

    def node_indices(self) -> Iterable[int]:
        """Alive slots in node insertion order."""
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

    def slot_capacity(self) -> int:
        """Number of allocated slots (>= num_nodes; sizes side buffers)."""
        return len(self._labels)

    def neighbors_view(self, v: Node) -> Iterator[Node]:
        """Lazily iterate the neighbor labels of ``v`` without copying.

        Do not mutate the graph while iterating.
        """
        try:
            i = self._index[v]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None
        labels = self._labels
        return (labels[j] for j in self._adj[i])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._index)

    @property
    def num_nodes(self) -> int:
        return len(self._index)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def __contains__(self, v: Node) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._index)

    def neighbors(self, v: Node) -> frozenset[Node]:
        try:
            i = self._index[v]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None
        labels = self._labels
        return frozenset(labels[j] for j in self._adj[i])

    def has_edge(self, u: Node, v: Node) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        return iu is not None and iv is not None and iv in self._adj[iu]

    def degree(self, v: Node) -> int:
        try:
            return len(self._adj[self._index[v]])
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None

    def node_weight(self, v: Node) -> float:
        try:
            return self._weights[self._index[v]]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None

    def max_degree(self) -> int:
        if not self._index:
            return 0
        return max(len(self._adj[i]) for i in self._index.values())

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Each undirected edge yielded exactly once."""
        labels = self._labels
        for i in self._index.values():
            li = labels[i]
            for j in self._adj[i]:
                if i < j:
                    yield (li, labels[j])

    def induced(self, subset: Iterable[Node]) -> "Graph":
        """Subgraph induced by ``subset`` (weights preserved)."""
        keep = set(subset)
        unknown = keep - set(self._index)
        if unknown:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, unknown))}")
        g = Graph()
        remap: dict[int, int] = {}
        for v, i in self._index.items():  # insertion order for determinism
            if v in keep:
                g.add_vertex(v, self._weights[i])
                remap[i] = g._index[v]
        added = 0
        for old_i, new_i in remap.items():
            new_adj = {remap[j] for j in self._adj[old_i] if j in remap}
            g._adj[new_i] = new_adj
            added += len(new_adj)
        g._edge_count = added // 2
        return g

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _ensure_scratch(self) -> None:
        need = len(self._labels) - len(self._bfs_dist)
        if need > 0:
            self._bfs_dist.extend([0] * need)
            self._bfs_seen.extend([0] * need)
            obs.count("graph.scratch.grows")
            obs.count("graph.scratch.grown_slots", need)
        else:
            obs.count("graph.scratch.reuses")

    def bfs_order_from(self, source: int):
        """BFS from slot ``source``; returns slots in visit order.

        Returns a ``list[int]`` on the legacy path or a numpy array on
        the CSR path — both in the *identical* visit order.  Distances
        are left in the reusable buffer returned by
        :meth:`bfs_dist_view`, valid only for the slots in the returned
        order and only until the next BFS call.
        """
        if self._use_csr():
            order, dist = self.csr().bfs(source)
            self._active_dist = dist
            obs.count("graph.bfs.calls")
            obs.count("graph.bfs.nodes_visited", len(order))
            return order
        self._ensure_scratch()
        self._active_dist = self._bfs_dist
        self._bfs_stamp += 1
        stamp = self._bfs_stamp
        seen = self._bfs_seen
        dist = self._bfs_dist
        adj = self._adj
        order = [source]
        seen[source] = stamp
        dist[source] = 0
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            dv1 = dist[v] + 1
            for u in adj[v]:
                if seen[u] != stamp:
                    seen[u] = stamp
                    dist[u] = dv1
                    order.append(u)
        obs.count("graph.bfs.calls")
        obs.count("graph.bfs.nodes_visited", len(order))
        return order

    def bfs_dist_view(self):
        """The reusable BFS distance buffer (see :meth:`bfs_order_from`).

        A python list after a legacy BFS, a numpy array after a CSR BFS —
        integer-indexable either way.
        """
        return self._active_dist

    def bfs_levels(self, source: Node) -> dict[Node, int]:
        """Distance (in hops) from ``source`` to every reachable node."""
        try:
            s = self._index[source]
        except KeyError:
            raise GraphError(f"no such node {source!r}") from None
        order = self.bfs_order_from(s)
        labels = self._labels
        dist = self._active_dist
        if not isinstance(order, list):
            order = order.tolist()
            return {labels[i]: int(dist[i]) for i in order}
        return {labels[i]: dist[i] for i in order}

    def bfs_farthest(self, source: Node, rng: random.Random | None = None) -> tuple[Node, int]:
        """A node at maximum BFS distance from ``source`` and that distance.

        Ties among deepest nodes are broken uniformly at random when a
        ``rng`` is supplied (the paper starts BFS "from a random vertex"
        and we extend the randomness to the far endpoint so that repeated
        multi-start runs explore distinct diameters).
        """
        try:
            s = self._index[source]
        except KeyError:
            raise GraphError(f"no such node {source!r}") from None
        order = self.bfs_order_from(s)
        dist = self._active_dist
        depth = int(dist[order[-1]])
        # BFS visit order is non-decreasing in distance: the deepest nodes
        # are exactly the tail block of the order.
        if isinstance(order, list):
            lo = len(order) - 1
            while lo > 0 and dist[order[lo - 1]] == depth:
                lo -= 1
        else:
            import numpy as np

            # Same tail block, found by binary search on the sorted
            # distance-over-order array instead of a backwards scan.
            lo = int(np.searchsorted(dist[order], depth, side="left"))
        if rng is None:
            far = order[lo]
        else:
            far = order[lo + rng.randrange(len(order) - lo)]
        return self._labels[int(far)], depth

    def eccentricity(self, v: Node) -> int:
        """Max BFS distance from ``v`` within its component."""
        try:
            s = self._index[v]
        except KeyError:
            raise GraphError(f"no such node {v!r}") from None
        order = self.bfs_order_from(s)
        return int(self._active_dist[order[-1]])

    def diameter(self) -> int:
        """Exact diameter by all-pairs BFS. O(V * (V + E)) — small graphs only.

        Raises :class:`GraphError` on a disconnected or empty graph.
        """
        if not self._index:
            raise GraphError("diameter of empty graph is undefined")
        best = 0
        n = len(self._index)
        for i in self._index.values():
            order = self.bfs_order_from(i)
            if len(order) != n:
                raise GraphError("diameter of disconnected graph is undefined")
            d = int(self._active_dist[order[-1]])
            if d > best:
                best = d
        return best

    def component_slots(self) -> list:
        """The slots of each connected component, as int64 arrays in BFS order.

        Components come in the insertion order of their first node, each
        found by one BFS from that node.
        """
        import numpy as np

        seen = np.zeros(len(self._labels), dtype=bool)
        left = len(self._index)
        out = []
        for i in self._index.values():
            if not left:
                break
            if seen[i]:
                continue
            order = np.asarray(self.bfs_order_from(i), dtype=np.int64)
            seen[order] = True
            left -= len(order)
            out.append(order)
        return out

    def connected_components(self) -> list[set[Node]]:
        labels = self._labels
        return [set(map(labels.__getitem__, c.tolist())) for c in self.component_slots()]

    def is_connected(self) -> bool:
        if not self._index:
            return True
        first = next(iter(self._index.values()))
        return len(self.bfs_order_from(first)) == len(self._index)

    def is_bipartite(self) -> tuple[bool, dict[Node, int]]:
        """2-colorability check.

        Returns ``(True, coloring)`` with colors in {0, 1}, or
        ``(False, partial_coloring)`` when an odd cycle exists.
        """
        labels = self._labels
        adj = self._adj
        color: dict[int, int] = {}
        for start in self._index.values():
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
        """A node of minimum degree (deterministic: first in iteration order).

        Unknown (or removed) candidates raise :class:`GraphError` like
        every other query path — not a raw ``KeyError``.
        """
        pool = self._index if candidates is None else list(candidates)
        if not pool:
            raise GraphError("no candidates")

        def degree_key(v: Node) -> tuple[int, str]:
            try:
                return (len(self._adj[self._index[v]]), repr(v))
            except KeyError:
                raise GraphError(f"no such node {v!r}") from None

        return min(pool, key=degree_key)

    def to_networkx(self):
        """Interop: export to a :mod:`networkx` graph (weights as attrs)."""
        import networkx as nx

        g = nx.Graph()
        for v, i in self._index.items():
            g.add_node(v, weight=self._weights[i])
        g.add_edges_from(self.edges())
        return g

    def __getstate__(self):
        # BFS scratch is process-local; drop it so pickles stay compact
        # (the parallel multi-start path ships graphs to worker processes).
        state = self.__dict__.copy()
        state["_bfs_dist"] = []
        state["_bfs_seen"] = []
        state["_bfs_stamp"] = 0
        state["_active_dist"] = state["_bfs_dist"]
        # The CSR snapshot is a derived cache — cheap to rebuild, big to ship.
        state["_csr"] = None
        state["_csr_version"] = -1
        state["_ranks"] = None
        state["_ranks_version"] = -1
        return state

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
