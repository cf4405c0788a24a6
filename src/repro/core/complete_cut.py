"""Complete-Cut: greedy completion of a partial bipartition (Section 2.2).

Nodes of the bipartite boundary graph ``G'`` are hyperedges of ``H`` that
may still either cross the final cut (*losers*) or land wholly on one side
(*winners*).  The paper's Fact — a winner's ``G'``-neighbours are all
losers — reduces optimal completion to a maximum-independent-set problem
on ``G'``; Complete-Cut is the greedy:

    <1> pick the minimum-degree remaining node ``v``; mark it a winner;
    <2> mark all remaining neighbours of ``v`` losers;
    <3> delete ``v`` and the losers; repeat while ``G'`` is non-trivial.

Theorem (paper): on a connected ``G'`` this yields a cutsize within one of
the optimum completion.  We also provide:

* :func:`complete_cut_weighted` — the *engineer's rule* for weighted
  r-bipartition (Section 3): always pick the next winner from the lighter
  side of the running partition.
* :func:`optimal_completion_losers` — an exact reference via König's
  theorem (max independent set in a bipartite graph = n − max matching),
  used by the tests and the ablation benchmarks to measure the greedy's
  true gap.
* Alternative greedy variants (Section 5 Extensions: "we have found
  success with several variants of the Complete-Cut method").
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.core.boundary import BoundaryGraph
from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph

Node = Hashable
Vertex = Hashable

#: Greedy winner-selection variants.
VARIANTS = ("min_degree", "random_min_degree", "min_loser_weight")


class CompletionError(ValueError):
    """Raised on invalid completion parameters."""


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
        self.adj = graph.adjacency_view()
        self.labels = graph.labels_view()
        self.ids = list(graph.node_indices())
        cap = graph.slot_capacity()
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
    sel = _WinnerSelector(g, variant, rng, pool_of=[0] * g.slot_capacity(), num_pools=1)
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
    pool_of = [1] * g.slot_capacity()
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


# ----------------------------------------------------------------------
# Exact reference (König's theorem) for tests and ablations
# ----------------------------------------------------------------------


def _max_bipartite_matching(boundary: BoundaryGraph) -> dict[Node, Node]:
    """Maximum matching of ``G'`` by augmenting paths (Hungarian-style).

    Returns match partner per matched node (symmetric entries).
    Complexity ``O(V * E)`` — the boundary set is a constant fraction of
    the hyperedges, and this is only used as a test/ablation oracle.
    """
    match: dict[Node, Node] = {}
    graph = boundary.graph

    def try_augment(u: Node, visited: set[Node]) -> bool:
        for w in graph.neighbors_view(u):
            if w in visited:
                continue
            visited.add(w)
            if w not in match or try_augment(match[w], visited):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in boundary.left:
        if u not in match:
            try_augment(u, set())
    return match


def optimal_completion_losers(boundary: BoundaryGraph) -> frozenset[Node]:
    """Exact minimum loser set via König's theorem.

    Minimum #losers = minimum vertex cover of ``G'`` = size of a maximum
    matching (König, ``G'`` bipartite).  The cover is recovered by the
    standard alternating-path construction: from unmatched left nodes,
    alternate unmatched/matched edges; the cover is (unreached left) ∪
    (reached right).
    """
    match = _max_bipartite_matching(boundary)
    graph = boundary.graph

    reached_left: set[Node] = {u for u in boundary.left if u not in match}
    reached_right: set[Node] = set()
    queue = deque(reached_left)
    while queue:
        u = queue.popleft()
        for w in graph.neighbors_view(u):
            if w in reached_right:
                continue
            reached_right.add(w)
            partner = match.get(w)
            if partner is not None and partner not in reached_left:
                reached_left.add(partner)
                queue.append(partner)

    cover = (set(boundary.left) - reached_left) | reached_right
    return frozenset(cover)


def optimal_completion_size(boundary: BoundaryGraph) -> int:
    """Size of the optimum completion's loser set (exact)."""
    return len(optimal_completion_losers(boundary))
