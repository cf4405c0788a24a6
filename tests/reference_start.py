"""The label-space path of Algorithm I, kept as a test reference.

Steps 3-6 of Algorithm I as they ran before the per-start pipeline moved
onto integer arrays: every start built a label-set :class:`GraphCut`, a
fresh ``Graph`` for ``G'``, ``repr``-keyed Complete-Cut heaps, label-set
winner commits and a full :class:`Bipartition`.  The code below is that
path verbatim (its two ``_use_csr()`` twins included: the boundary
extraction in :func:`double_bfs_cut` and :func:`boundary_graph`'s
per-node loop), except that ``boundary_graph`` gathers CSR rows with
:func:`repro.core.csr.gather_rows` now that ``CSRAdjacency.gather`` is
gone, and builds ``G'`` through the ``Graph`` constructor, in the same
node and edge order, now that ``Graph`` is frozen once built; plus
:func:`reference_algorithm1`, the multi-start driver around it.
``tests/test_start_differential.py`` checks the index path against it.
The twins are chosen by this module's own :data:`USE_CSR` switch, which
the tests flip to run both; ``Graph`` once chose them by edge count.

The per-run setup is kept the same way, as it ran before it moved onto
the hypergraph index: :func:`filter_large_edges` with its per-pin
``restricted_to_edges`` loop, :func:`intersection_graph` with one
``Graph.add_clique`` per module (inlined into :func:`clique_adjacency`,
whose sets are handed to ``Graph.from_rows`` as pairs), and the
label-set :func:`connected_components` (on :func:`set_walk_bfs`, the
sequential walk ``Graph`` ran below 2048 edges, when :data:`USE_CSR` is
off).  ``reference_algorithm1`` runs on them, and
``tests/test_setup_differential.py`` compares each with ``src``.

Neighbour order: the walks here once iterated the dual's python sets,
in their hash-table order.  Every graph now lists each node's
neighbours in ascending slot order (``Graph.row_lists``), and so does
every walk below; nothing else changed.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.core.algorithm1 import StartRecord, _rank_key
from repro.core.complete_cut import VARIANTS, CompletionError
from repro.core.csr import gather_rows
from repro.core.dual_cut import DualCutError, random_longest_bfs_path
from repro.core.graph import Graph, GraphError
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.index import HypergraphIndex
from repro.core.intersection import IntersectionGraph
from repro.core.partition import Bipartition

Node = Hashable
Vertex = Hashable
EdgeName = Hashable

#: Which twin runs: the CSR one (True) or the one that walks the python
#: sets (False).
USE_CSR = True


def set_walk_bfs(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """``(order, dist)``: BFS from slot ``source`` over the slot rows ``adj``.

    ``Graph.bfs_order_from`` as it ran on graphs below 2048 edges: a
    sequential FIFO walk with a stamped visited array.  ``dist`` is valid
    only for the slots in ``order``.
    """
    seen = [0] * len(adj)
    dist = [0] * len(adj)
    stamp = 1
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
    return order, dist


def restricted_to_edges(hypergraph: Hypergraph, edge_subset) -> Hypergraph:
    """``Hypergraph.restricted_to_edges``: member frozensets shared, incidence per pin."""
    h = Hypergraph()
    h._vertex_weights = dict(hypergraph._vertex_weights)
    h._incidence = {v: set() for v in hypergraph._vertex_weights}
    for name in edge_subset:
        members = hypergraph.edge_members(name)
        if name in h._edge_members:
            raise HypergraphError(f"duplicate edge name {name!r}")
        h._edge_members[name] = members
        h._edge_weights[name] = hypergraph._edge_weights[name]
        for v in members:
            h._incidence[v].add(name)
    return h


def filter_large_edges(
    hypergraph: Hypergraph, threshold: int = 10
) -> tuple[Hypergraph, frozenset[EdgeName]]:
    """Drop hyperedges with ``size >= threshold``."""
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2 (got {threshold}); 2-pin nets are never noise")
    ignored = frozenset(
        name for name in hypergraph.edge_names if hypergraph.edge_size(name) >= threshold
    )
    if not ignored:
        return hypergraph, ignored
    kept = [name for name in hypergraph.edge_names if name not in ignored]
    return restricted_to_edges(hypergraph, kept), ignored


def clique_adjacency(hypergraph: Hypergraph) -> list[set[int]]:
    """Each edge row's neighbour rows in the dual, one clique per module."""
    labels = hypergraph.edge_names
    slots = list(range(len(labels)))
    index = dict(zip(labels, slots))
    adj: list[set[int]] = [set() for _ in slots]
    for v in hypergraph.vertices:
        incident = hypergraph.incident_edges_view(v)
        if len(incident) > 1:
            # Graph.add_clique(incident):
            seen_ids = set()
            ids = []
            for u in incident:
                i = index[u]
                if i not in seen_ids:
                    seen_ids.add(i)
                    ids.append(i)
            ids.sort()
            for k, a in enumerate(ids):
                sa = adj[a]
                for b in ids[k + 1 :]:
                    if b not in sa:
                        sa.add(b)
                        adj[b].add(a)
    return adj


def intersection_graph(hypergraph: Hypergraph) -> IntersectionGraph:
    """Build the intersection graph ``G`` dual to ``hypergraph``, one clique per module."""
    labels = hypergraph.edge_names
    pairs = [(a, b) for a, row in enumerate(clique_adjacency(hypergraph)) for b in row]
    weights = [float(hypergraph.edge_weight(name)) for name in labels]
    g = Graph.from_rows(labels, weights, [a for a, _ in pairs], [b for _, b in pairs])
    g.row_lists()
    g.repr_ranks()
    return IntersectionGraph(hypergraph, g, HypergraphIndex(hypergraph))


def connected_components(graph: Graph) -> list[set[Node]]:
    """``Graph.connected_components``: label sets, one BFS per component."""
    seen: set[int] = set()
    labels = graph.labels_view()
    out: list[set[Node]] = []
    for i in range(graph.num_nodes):
        if i in seen:
            continue
        if USE_CSR:
            order = graph.bfs_order_from(i)[0].tolist()
        else:
            order = set_walk_bfs(graph.row_lists(), i)[0]
        seen.update(order)
        out.append({labels[j] for j in order})
    return out


@dataclass(frozen=True)
class GraphCut:
    """A two-sided cut of the intersection graph ``G``.

    ``left`` / ``right`` partition all G-nodes; ``boundary_left`` /
    ``boundary_right`` are the subsets adjacent to the opposite side.
    """

    left: frozenset[Node]
    right: frozenset[Node]
    boundary_left: frozenset[Node]
    boundary_right: frozenset[Node]
    seed_u: Node
    seed_v: Node

    @property
    def boundary(self) -> frozenset[Node]:
        """The full boundary set ``B = B_L ∪ B_R``."""
        return self.boundary_left | self.boundary_right

    @property
    def interior_left(self) -> frozenset[Node]:
        """Left nodes *not* on the boundary (signals that never cross)."""
        return self.left - self.boundary_left

    @property
    def interior_right(self) -> frozenset[Node]:
        return self.right - self.boundary_right


@dataclass(frozen=True)
class PartialBipartition:
    """Vertex placement implied by the non-boundary G-nodes.

    ``placed_left`` / ``placed_right`` are H-vertices forced to a side;
    ``free`` are H-vertices belonging only to boundary hyperedges (or to
    no hyperedge at all) — they are placed later, during completion.
    """

    placed_left: frozenset[Vertex]
    placed_right: frozenset[Vertex]
    free: frozenset[Vertex] = field(default=frozenset())

    def __post_init__(self) -> None:
        overlap = self.placed_left & self.placed_right
        if overlap:
            raise DualCutError(
                "inconsistent partial bipartition — vertices forced to both sides: "
                f"{sorted(map(repr, overlap))[:5]}"
            )


def double_bfs_cut(
    graph: Graph,
    u: Node,
    v: Node,
    rng: random.Random | None = None,
    mode: str = "balanced",
) -> GraphCut:
    """Step <2>: grow BFS from ``u`` and ``v`` simultaneously; cut where they meet.

    Each node belongs to whichever search claims it first.  Two growth
    disciplines are provided (the paper — "doing breadth-first search
    from two distant nodes of G until the two expanding sets meet to
    define a cutline" — does not pin one down):

    * ``"balanced"`` (default): on every step the search whose claimed
      set is currently smaller expands one node from its FIFO frontier.
      The two regions therefore grow at equal node rates, so the cutline
      lands near the size midpoint even when one seed sits closer to a
      dense core — essential on hub-heavy duals of real netlists.
    * ``"level"``: classic lock-step level-synchronous expansion.  On
      expander-like bounded-degree graphs (the paper's analysis model)
      this behaves like "balanced"; on hub-heavy graphs the side nearer
      the core floods the graph.  Kept for the ablation benches.

    When ``u == v`` (single-node components) the right side would be
    empty; callers must special-case that (Algorithm I does).

    Nodes unreachable from both seeds (other connected components of
    ``G``) are attached wholesale to the currently smaller side; being in
    separate components they can never become boundary nodes, which is
    exactly the paper's ``c = 0`` observation — "BFS in G finds the
    unconnectedness".
    """
    if u == v:
        if u not in graph:
            raise GraphError(f"seed not in graph: {u!r} / {v!r}")
        raise DualCutError("double BFS needs two distinct seeds")
    if mode not in ("balanced", "level"):
        raise DualCutError(f"unknown double-BFS mode {mode!r}")
    try:
        iu = graph.index_of(u)
        iv = graph.index_of(v)
    except GraphError:
        raise GraphError(f"seed not in graph: {u!r} / {v!r}") from None

    # The whole growth race runs in index space on the graph's internal
    # adjacency — no neighbor-set copies anywhere in the loop.
    adj = graph.row_lists()
    side = [-1] * graph.num_nodes
    side[iu] = 0
    side[iv] = 1
    counts = [1, 1]
    frontiers: list[deque[int]] = [deque([iu]), deque([iv])]

    if mode == "balanced":
        turn = 0 if rng is None else rng.randrange(2)
        while frontiers[0] or frontiers[1]:
            if not frontiers[turn]:
                turn = 1 - turn
            node = frontiers[turn].popleft()
            frontier = frontiers[turn]
            for nbr in adj[node]:
                if side[nbr] < 0:
                    side[nbr] = turn
                    counts[turn] += 1
                    frontier.append(nbr)
            if frontiers[1 - turn] and counts[1 - turn] <= counts[turn]:
                turn = 1 - turn
    else:
        turn = 0 if rng is None else rng.randrange(2)
        while frontiers[0] or frontiers[1]:
            current = frontiers[turn]
            next_frontier: deque[int] = deque()
            while current:
                node = current.popleft()
                for nbr in adj[node]:
                    if side[nbr] < 0:
                        side[nbr] = turn
                        counts[turn] += 1
                        next_frontier.append(nbr)
            frontiers[turn] = next_frontier
            turn = 1 - turn

    # Other components: attach each whole component to the smaller side.
    # Component nodes are unreachable from both seeds, so they can never
    # be adjacent to the other side — they never become boundary.
    for start in range(graph.num_nodes):
        if side[start] >= 0:
            continue
        stack = [start]
        component = [start]
        attach = 0 if counts[0] <= counts[1] else 1
        side[start] = attach
        while stack:
            node = stack.pop()
            for nbr in adj[node]:
                if side[nbr] < 0:
                    side[nbr] = attach
                    component.append(nbr)
                    stack.append(nbr)
        counts[attach] += len(component)

    labels = graph.labels_view()
    left: list[Node] = []
    right: list[Node] = []
    boundary_left: list[Node] = []
    boundary_right: list[Node] = []
    if USE_CSR:
        import numpy as np

        # Vectorized boundary extraction: a node is boundary iff any CSR
        # entry in its row lands on the other side.  Per-row "any" via
        # prefix-sum differencing (reduceat mishandles empty rows).
        csr = graph.csr()
        side_np = np.asarray(side, dtype=np.int8)
        cross = side_np[csr.indices] != np.repeat(side_np, csr.degrees())
        cs = np.concatenate(([0], np.cumsum(cross, dtype=np.int64)))
        has_cross = cs[csr.indptr[1:]] > cs[csr.indptr[:-1]]
        for i in range(graph.num_nodes):
            s = side[i]
            (left if s == 0 else right).append(labels[i])
            if has_cross[i]:
                (boundary_left if s == 0 else boundary_right).append(labels[i])
    else:
        for i in range(graph.num_nodes):
            s = side[i]
            (left if s == 0 else right).append(labels[i])
            other = 1 - s
            for nbr in adj[i]:
                if side[nbr] == other:
                    (boundary_left if s == 0 else boundary_right).append(labels[i])
                    break
    obs.count("dual_cut.cuts")
    obs.count("dual_cut.boundary_nodes", len(boundary_left) + len(boundary_right))
    return GraphCut(
        left=frozenset(left),
        right=frozenset(right),
        boundary_left=frozenset(boundary_left),
        boundary_right=frozenset(boundary_right),
        seed_u=u,
        seed_v=v,
    )


def partial_bipartition(
    intersection: IntersectionGraph, cut: GraphCut
) -> PartialBipartition:
    """Project a graph cut of ``G`` down to a partial bipartition of ``H``.

    Every H-vertex belonging to some *non-boundary* hyperedge is forced to
    that hyperedge's side; vertices touched only by boundary hyperedges
    (or by nothing) stay free.  Consistency (no vertex forced both ways)
    is guaranteed by the boundary definition and re-checked here.
    """
    h = intersection.hypergraph
    placed_left: set[Vertex] = set()
    placed_right: set[Vertex] = set()
    for name in cut.interior_left:
        placed_left.update(h.edge_members(name))
    for name in cut.interior_right:
        placed_right.update(h.edge_members(name))
    free = set(h.vertices) - placed_left - placed_right
    return PartialBipartition(
        placed_left=frozenset(placed_left),
        placed_right=frozenset(placed_right),
        free=frozenset(free),
    )


@dataclass(frozen=True)
class BoundaryGraph:
    """The bipartite graph ``G'`` over the boundary set.

    Attributes
    ----------
    graph:
        Nodes are exactly ``B_L ∪ B_R``; edges only run between the two
        sides (intra-side intersections of ``G`` are dropped).
    left, right:
        The two color classes ``B_L`` and ``B_R``.
    """

    graph: Graph
    left: frozenset[Node]
    right: frozenset[Node]

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
        return self.graph.num_edges == 0


def boundary_graph(graph: Graph, cut: GraphCut) -> BoundaryGraph:
    """Build ``G'`` from the full intersection graph and a cut of it.

    Only adjacency *across* the cut is retained: an edge of ``G`` between
    two boundary nodes on the same side does not force a winner/loser
    relation and is deleted, exactly as in the paper.
    """
    nodes: dict[Node, float] = {}
    for node in cut.boundary_left:
        nodes[node] = graph.node_weight(node)
    for node in cut.boundary_right:
        nodes[node] = graph.node_weight(node)
    edges: list[tuple[Node, Node]] = []
    labels = graph.labels_view()
    if USE_CSR:
        import numpy as np

        # Vectorized cross-pair discovery over the CSR snapshot: gather
        # the concatenated rows of all left boundary slots (in the same
        # left-iteration x row order the legacy scan used) and keep the
        # entries that land in the right boundary.
        csr = graph.csr()
        li = np.fromiter(
            (graph.index_of(n) for n in cut.boundary_left),
            count=len(cut.boundary_left),
            dtype=np.int64,
        )
        right_mask = np.zeros(graph.num_nodes, dtype=bool)
        for n in cut.boundary_right:
            right_mask[graph.index_of(n)] = True
        lens, nbrs = gather_rows(csr.indptr, csr.indices, li)
        owners = np.repeat(li, lens)
        hit = right_mask[nbrs]
        for a, b in zip(owners[hit].tolist(), nbrs[hit].tolist()):
            edges.append((labels[a], labels[b]))
    else:
        adj = graph.row_lists()
        right_ids = {graph.index_of(n) for n in cut.boundary_right}
        for node in cut.boundary_left:
            for j in adj[graph.index_of(node)]:
                if j in right_ids:
                    edges.append((node, labels[j]))
    return BoundaryGraph(
        graph=Graph(nodes, edges),
        left=frozenset(cut.boundary_left),
        right=frozenset(cut.boundary_right),
    )


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of completing a partial bipartition.

    ``winners_left`` / ``winners_right`` are boundary hyperedges committed
    wholly to a side; ``losers`` are boundary hyperedges that cross the
    final cut.  ``order`` records the winner-selection sequence for
    diagnostics and the ablation benches.
    """

    winners_left: frozenset[Node]
    winners_right: frozenset[Node]
    losers: frozenset[Node]
    order: tuple[Node, ...] = field(default=(), repr=False)

    @property
    def num_losers(self) -> int:
        return len(self.losers)

    @property
    def winners(self) -> frozenset[Node]:
        return self.winners_left | self.winners_right


class _WinnerSelector:
    """Index-space winner selection over ``G'`` with lazy min-heaps.

    The graph is never copied or mutated: liveness, current degree, and
    (for the weighted variant) the running neighbour-weight sum live in
    flat arrays indexed by the graph's interned node slots.  Each pool
    (one for :func:`complete_cut`, one per side for the engineer's rule)
    keeps a min-heap of cost entries; entries turn stale when their node
    dies or its cost changes, and stale entries are simply discarded on
    pop.  A full run costs ``O((V + E) log E)`` instead of the former
    per-round linear rescans with their per-candidate ``repr`` calls.
    """

    __slots__ = (
        "variant", "rng", "adj", "labels", "ids", "alive", "deg",
        "weight", "wsum", "reprs", "pool_of", "heaps", "count",
    )

    def __init__(
        self,
        graph: Graph,
        variant: str,
        rng: random.Random | None,
        pool_of: list[int],
        num_pools: int,
    ) -> None:
        if variant not in VARIANTS:
            raise CompletionError(
                f"unknown Complete-Cut variant {variant!r}; choose from {VARIANTS}"
            )
        self.variant = variant
        self.rng = rng
        self.adj = graph.row_lists()
        self.labels = graph.labels_view()
        self.ids = list(range(graph.num_nodes))
        cap = graph.num_nodes
        self.alive = bytearray(cap)
        self.pool_of = pool_of
        self.count = [0] * num_pools
        self.deg = [0] * cap
        self.weight = [1.0] * cap
        self.wsum = [0.0] * cap
        self.reprs: list[str | None] = [None] * cap
        for i in self.ids:
            self.alive[i] = 1
            self.deg[i] = len(self.adj[i])
            self.weight[i] = graph.node_weight(self.labels[i])
            self.reprs[i] = repr(self.labels[i])
            self.count[pool_of[i]] += 1
        # The weighted variant's neighbour sums stay a python loop on
        # purpose: a vectorized prefix-sum difference would change float
        # rounding and therefore heap tie-break order.
        if variant == "min_loser_weight":
            for i in self.ids:
                self.wsum[i] = sum(self.weight[j] for j in self.adj[i])
        self.heaps: list[list[tuple]] = [[] for _ in range(num_pools)]
        for i in self.ids:
            self.heaps[pool_of[i]].append(self._entry(i))
        for heap in self.heaps:
            heapq.heapify(heap)

    def _entry(self, i: int) -> tuple:
        if self.variant == "min_loser_weight":
            return (self.wsum[i], self.deg[i], self.reprs[i], i)
        if self.variant == "min_degree":
            return (self.deg[i], self.reprs[i], i)
        return (self.deg[i], i)

    def _fresh(self, entry: tuple) -> bool:
        i = entry[-1]
        if not self.alive[i]:
            return False
        if self.variant == "min_loser_weight":
            return entry[0] == self.wsum[i] and entry[1] == self.deg[i]
        return entry[0] == self.deg[i]

    def pick(self, pool: int) -> int:
        """Index of the next winner in ``pool`` (must be non-empty)."""
        heap = self.heaps[pool]
        while not self._fresh(heap[0]):
            heapq.heappop(heap)
        if self.variant == "random_min_degree":
            lowest = heap[0][0]
            pool_of = self.pool_of
            candidates = [
                i for i in self.ids
                if self.alive[i] and pool_of[i] == pool and self.deg[i] == lowest
            ]
            chooser = self.rng if self.rng is not None else random
            return candidates[chooser.randrange(len(candidates))]
        return heap[0][-1]

    def kill_winner(self, winner: int) -> list[int]:
        """Remove the winner and its live neighbours; return the beaten."""
        adj = self.adj
        alive = self.alive
        beaten = [j for j in adj[winner] if alive[j]]
        alive[winner] = 0
        self.count[self.pool_of[winner]] -= 1
        for b in beaten:
            alive[b] = 0
            self.count[self.pool_of[b]] -= 1
        weighted = self.variant == "min_loser_weight"
        deg = self.deg
        wsum = self.wsum
        heaps = self.heaps
        pool_of = self.pool_of
        for b in beaten:
            wb = self.weight[b]
            for j in adj[b]:
                if alive[j]:
                    deg[j] -= 1
                    if weighted:
                        wsum[j] -= wb
                    heapq.heappush(heaps[pool_of[j]], self._entry(j))
        return beaten


def complete_cut(
    boundary: BoundaryGraph,
    variant: str = "min_degree",
    rng: random.Random | None = None,
) -> CompletionResult:
    """Run Complete-Cut on the boundary graph (unweighted form).

    Isolated ``G'`` nodes are winners for free (no neighbour is forced to
    lose).  Runs in ``O((V + E) log E)`` via lazy-heap winner selection.
    """
    g = boundary.graph
    sel = _WinnerSelector(g, variant, rng, pool_of=[0] * g.num_nodes, num_pools=1)
    left_ids = {g.index_of(n) for n in boundary.left}
    labels = sel.labels
    winners_left: set[Node] = set()
    winners_right: set[Node] = set()
    losers: set[Node] = set()
    order: list[Node] = []

    while sel.count[0]:
        winner = sel.pick(0)
        label = labels[winner]
        order.append(label)
        if winner in left_ids:
            winners_left.add(label)
        else:
            winners_right.add(label)
        for b in sel.kill_winner(winner):
            losers.add(labels[b])

    obs.count("complete_cut.runs")
    obs.count("complete_cut.winners", len(order))
    obs.count("complete_cut.losers", len(losers))
    return CompletionResult(
        winners_left=frozenset(winners_left),
        winners_right=frozenset(winners_right),
        losers=frozenset(losers),
        order=tuple(order),
    )


def complete_cut_weighted(
    boundary: BoundaryGraph,
    hypergraph: Hypergraph,
    initial_left_weight: float,
    initial_right_weight: float,
    assigned: Mapping[Vertex, str] | None = None,
    variant: str = "min_degree",
    rng: random.Random | None = None,
) -> CompletionResult:
    """The engineer's rule (Section 3, "The r-bipartition Constraint").

    Side weight = total weight of H-vertices already committed to that
    side (non-boundary plus winners so far).  Each round picks the
    smallest-degree remaining ``G'`` node *on the lighter side*; a side
    with no remaining candidates cedes the pick to the other side.

    Parameters
    ----------
    initial_left_weight, initial_right_weight:
        Weight already committed by the partial bipartition.
    assigned:
        Vertex -> side ("L"/"R") for vertices already placed; winner
        hyperedges only add the weight of their not-yet-assigned pins.
    """
    g = boundary.graph
    pool_of = [1] * g.num_nodes
    for n in boundary.left:
        pool_of[g.index_of(n)] = 0
    sel = _WinnerSelector(g, variant, rng, pool_of=pool_of, num_pools=2)
    labels = sel.labels
    committed: dict[Vertex, str] = dict(assigned) if assigned else {}
    side_weight = {"L": float(initial_left_weight), "R": float(initial_right_weight)}
    winners_left: set[Node] = set()
    winners_right: set[Node] = set()
    losers: set[Node] = set()
    order: list[Node] = []

    def commit(edge: Node, side: str) -> None:
        for pin in hypergraph.edge_members(edge):
            if pin not in committed:
                committed[pin] = side
                side_weight[side] += hypergraph.vertex_weight(pin)

    while sel.count[0] or sel.count[1]:
        if side_weight["L"] <= side_weight["R"]:
            pool = 0 if sel.count[0] else 1
        else:
            pool = 1 if sel.count[1] else 0
        winner = sel.pick(pool)
        label = labels[winner]
        order.append(label)
        if pool == 0:
            winners_left.add(label)
            commit(label, "L")
        else:
            winners_right.add(label)
            commit(label, "R")
        for b in sel.kill_winner(winner):
            losers.add(labels[b])

    obs.count("complete_cut.weighted_runs")
    obs.count("complete_cut.winners", len(order))
    obs.count("complete_cut.losers", len(losers))
    return CompletionResult(
        winners_left=frozenset(winners_left),
        winners_right=frozenset(winners_right),
        losers=frozenset(losers),
        order=tuple(order),
    )


@dataclass(frozen=True)
class SingleRunTrace:
    """All intermediate artefacts of one Algorithm I start (for tests/teaching).

    ``bfs_depth`` is the depth of the random longest BFS path that chose
    the seeds — recorded here so multi-start diagnostics need not re-run
    the BFS.  ``timings`` holds per-phase seconds for this start
    (``cut`` / ``complete`` / ``balance``).
    """

    cut: GraphCut
    partial: PartialBipartition
    boundary: BoundaryGraph
    completion: CompletionResult
    bipartition: Bipartition
    bfs_depth: int = 0
    timings: dict = field(default_factory=dict, repr=False, compare=False)


def _balance_free_vertices(
    hypergraph: Hypergraph,
    left: set[Vertex],
    right: set[Vertex],
    free: list[Vertex],
    rng: random.Random,
) -> None:
    """Greedily assign leftover vertices to the lighter side (in place).

    Heaviest-first (LPT rule) keeps the final weight imbalance at most the
    weight of one module.  Ties in side weight break randomly so that
    multi-start explores different completions.
    """
    free_sorted = sorted(free, key=lambda v: (-hypergraph.vertex_weight(v), repr(v)))
    wl = sum(hypergraph.vertex_weight(v) for v in left)
    wr = sum(hypergraph.vertex_weight(v) for v in right)
    for v in free_sorted:
        if wl < wr or (wl == wr and rng.random() < 0.5):
            left.add(v)
            wl += hypergraph.vertex_weight(v)
        else:
            right.add(v)
            wr += hypergraph.vertex_weight(v)


def _ensure_nonempty_sides(
    hypergraph: Hypergraph, left: set[Vertex], right: set[Vertex]
) -> None:
    """Move one lightest vertex if a side came out empty (in place)."""
    if hypergraph.num_vertices < 2:
        return
    if not left:
        donor = min(right, key=lambda v: (hypergraph.vertex_weight(v), repr(v)))
        right.discard(donor)
        left.add(donor)
    elif not right:
        donor = min(left, key=lambda v: (hypergraph.vertex_weight(v), repr(v)))
        left.discard(donor)
        right.add(donor)


def _commit_winner_pins(
    working: Hypergraph,
    completion: CompletionResult,
    left: set[Vertex],
    right: set[Vertex],
) -> None:
    """Commit winner pins to their sides in completion order (in place).

    A pin claimed by winners on *both* sides (impossible for a true
    intersection dual, where opposing winners sharing a pin would be
    ``G'``-adjacent and one forced to lose, but reachable through crafted
    or degenerate boundary graphs) goes to whichever winner Complete-Cut
    selected first.  Resolving by ``completion.order`` is deterministic
    and side-symmetric; committing all left winners before all right
    winners would silently privilege the left side.
    """
    for name in completion.order:
        if name in completion.winners_left:
            left.update(p for p in working.edge_members(name) if p not in right)
        elif name in completion.winners_right:
            right.update(p for p in working.edge_members(name) if p not in left)


def run_single_start(
    intersection: IntersectionGraph,
    original: Hypergraph,
    rng: random.Random,
    start_node: EdgeName | None = None,
    variant: str = "min_degree",
    weighted_balance: bool = False,
    double_sweep: bool = False,
    bfs_mode: str = "balanced",
) -> SingleRunTrace:
    """One complete pass of steps 3–6 from the given (or random) start node.

    Exposed separately so the paper's worked example (Figure 4) and the
    ablation benchmarks can pin the seeds and inspect every intermediate.
    """
    g = intersection.graph
    working = intersection.hypergraph
    timer = obs.PhaseTimer("algorithm1")
    with timer.phase("cut"):
        u, v, depth = random_longest_bfs_path(
            g, rng=rng, start=start_node, double_sweep=double_sweep
        )

        if u == v:
            # Degenerate single-node BFS component: depth 0 means the seed
            # has no neighbours at all, so no boundary can arise — fall back
            # to an arbitrary one-vs-rest graph cut with empty boundary sets.
            assert g.degree(u) == 0, "u == v fallback requires an isolated seed"
            others = [n for n in g.nodes if n != u]
            cut = GraphCut(
                left=frozenset([u]),
                right=frozenset(others),
                boundary_left=frozenset(),
                boundary_right=frozenset(),
                seed_u=u,
                seed_v=u,
            )
        else:
            cut = double_bfs_cut(g, u, v, rng=rng, mode=bfs_mode)

        partial = partial_bipartition(intersection, cut)
        bg = boundary_graph(g, cut)

    left: set[Vertex] = set(partial.placed_left)
    right: set[Vertex] = set(partial.placed_right)

    with timer.phase("complete"):
        if weighted_balance:
            assigned = {pin: "L" for pin in left}
            assigned.update({pin: "R" for pin in right})
            completion = complete_cut_weighted(
                bg,
                working,
                initial_left_weight=sum(working.vertex_weight(p) for p in left),
                initial_right_weight=sum(working.vertex_weight(p) for p in right),
                assigned=assigned,
                variant=variant,
                rng=rng,
            )
        else:
            completion = complete_cut(bg, variant=variant, rng=rng)

        _commit_winner_pins(working, completion, left, right)

    with timer.phase("balance"):
        free = [p for p in original.vertices if p not in left and p not in right]
        _balance_free_vertices(original, left, right, free, rng)
        _ensure_nonempty_sides(original, left, right)
        bipartition = Bipartition(original, left, right)

    return SingleRunTrace(
        cut=cut,
        partial=partial,
        boundary=bg,
        completion=completion,
        bipartition=bipartition,
        bfs_depth=depth,
        timings=timer.timings,
    )


def _pack_components(
    original: Hypergraph,
    working: Hypergraph,
    components: list[set[EdgeName]],
    rng: random.Random,
) -> Bipartition:
    """Zero-cut bipartition of a disconnected dual graph by block packing.

    Each G-component's hyperedges cover a disjoint module block; blocks
    are distributed heaviest-first onto the lighter side (LPT), then any
    modules in no working edge are balanced individually.
    """
    blocks: list[set[Vertex]] = []
    for component in components:
        block: set[Vertex] = set()
        for name in component:
            block.update(working.edge_members(name))
        blocks.append(block)
    blocks.sort(key=lambda b: (-sum(original.vertex_weight(v) for v in b), repr(sorted(b, key=repr))))

    left: set[Vertex] = set()
    right: set[Vertex] = set()
    wl = wr = 0.0
    for block in blocks:
        block_weight = sum(original.vertex_weight(v) for v in block)
        if wl <= wr:
            left |= block
            wl += block_weight
        else:
            right |= block
            wr += block_weight

    free = [v for v in original.vertices if v not in left and v not in right]
    _balance_free_vertices(original, left, right, free, rng)
    _ensure_nonempty_sides(original, left, right)
    return Bipartition(original, left, right)


def reference_algorithm1(
    hypergraph: Hypergraph,
    num_starts: int,
    seed: int,
    edge_size_threshold: int | None,
    variant: str,
    weighted_balance: bool,
    double_sweep: bool,
    balance_tolerance: float | None,
    bfs_mode: str,
    objective: str,
    parallel: int | None,
) -> tuple[Bipartition, list[StartRecord], list[SingleRunTrace]]:
    """The multi-start loop of ``algorithm1`` over the reference path.

    Returns the best bipartition, one :class:`StartRecord` per start and
    the start traces.  A ``parallel`` run draws every child seed up front
    and ranks ties by start index, so running its starts here one after
    another gives the answer the worker pool gives.
    """
    rng = random.Random(seed)
    if edge_size_threshold is None:
        working = hypergraph
    else:
        working, _ = filter_large_edges(hypergraph, edge_size_threshold)
        if working.num_edges == 0 and hypergraph.num_edges > 0:
            working = hypergraph
    intersection = intersection_graph(working)

    def packed(bipartition: Bipartition) -> tuple:
        record = StartRecord(
            seed_u=None,
            seed_v=None,
            bfs_depth=0,
            boundary_size=0,
            num_losers=0,
            cutsize=bipartition.cutsize,
            weight_imbalance=bipartition.weight_imbalance,
        )
        return bipartition, [record], []

    if intersection.num_nodes == 0:
        left: set[Vertex] = set()
        right: set[Vertex] = set()
        _balance_free_vertices(hypergraph, left, right, list(hypergraph.vertices), rng)
        _ensure_nonempty_sides(hypergraph, left, right)
        return packed(Bipartition(hypergraph, left, right))

    total_weight = hypergraph.total_vertex_weight or 1.0
    components = connected_components(intersection.graph)
    if len(components) > 1:
        bipartition = _pack_components(hypergraph, working, components, rng)
        packing_limit = balance_tolerance if balance_tolerance is not None else 0.25
        if bipartition.weight_imbalance / total_weight <= packing_limit:
            return packed(bipartition)

    if parallel is not None:
        start_rngs = [random.Random(rng.getrandbits(63)) for _ in range(num_starts)]
    else:
        start_rngs = [rng] * num_starts
    best = best_key = None
    records, traces = [], []
    for start_rng in start_rngs:
        trace = run_single_start(
            intersection,
            hypergraph,
            start_rng,
            variant=variant,
            weighted_balance=weighted_balance,
            double_sweep=double_sweep,
            bfs_mode=bfs_mode,
        )
        bp = trace.bipartition
        records.append(
            StartRecord(
                seed_u=trace.cut.seed_u,
                seed_v=trace.cut.seed_v,
                bfs_depth=trace.bfs_depth,
                boundary_size=len(trace.cut.boundary),
                num_losers=trace.completion.num_losers,
                cutsize=bp.cutsize,
                weight_imbalance=bp.weight_imbalance,
            )
        )
        traces.append(trace)
        key = _rank_key(bp, objective, balance_tolerance, total_weight)
        if best_key is None or key < best_key:
            best, best_key = bp, key
    return best, records, traces
