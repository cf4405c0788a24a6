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
from collections.abc import Callable, Hashable, Iterable, Mapping

import numpy as np

from repro import obs
from repro.core.boundary import BoundaryGraph
from repro.core.dual_cut import LazyLabels, PartialBipartition, label_field
from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph
from repro.core.index import HypergraphIndex

Node = Hashable
Vertex = Hashable

#: Greedy winner-selection variants.
VARIANTS = ("min_degree", "random_min_degree", "min_loser_weight")


class CompletionError(ValueError):
    """Raised on invalid completion parameters."""


class CompletionResult(LazyLabels):
    """Outcome of completing a partial bipartition.

    ``winners_left`` / ``winners_right`` are boundary hyperedges committed
    wholly to a side; ``losers`` are boundary hyperedges that cross the
    final cut.  ``order`` records the winner-selection sequence for
    diagnostics and the ablation benches.

    Made by :func:`complete_cut` or :func:`complete_cut_weighted`, it is
    index-backed: winners (in selection order, with their sides) and
    losers are slots of ``G'``'s base graph, and the label sets are built
    on first read.  It can also be built from label sets.
    """

    winners_left = label_field(0)
    winners_right = label_field(1)
    losers = label_field(2)
    order = label_field(3)

    def __init__(
        self,
        winners_left: Iterable[Node],
        winners_right: Iterable[Node],
        losers: Iterable[Node],
        order: Iterable[Node] = (),
    ) -> None:
        self._sets = (
            frozenset(winners_left), frozenset(winners_right), frozenset(losers), tuple(order)
        )
        self._slots = None

    @classmethod
    def from_slots(
        cls, base: Graph, order: list[int], sides: list[int], losers: list[int]
    ) -> "CompletionResult":
        """Winners ``order`` (base slots) on ``sides`` (0 left, 1 right), and ``losers``."""
        result = cls.__new__(cls)
        result._slots = (base, order, sides, losers)
        return result

    def _build_sets(self) -> tuple:
        base, order, sides, losers = self._slots
        labels = base.labels_view()
        return (
            frozenset(labels[w] for w, s in zip(order, sides) if s == 0),
            frozenset(labels[w] for w, s in zip(order, sides) if s == 1),
            frozenset(labels[b] for b in losers),
            tuple(labels[w] for w in order),
        )

    @property
    def num_losers(self) -> int:
        if self._sets is None:
            return len(self._slots[3])
        return len(self._sets[2])

    @property
    def winners(self) -> frozenset[Node]:
        return self.winners_left | self.winners_right

    def winner_slots(self, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
        """Winners as ``graph`` slots in selection order, and their sides (0/1)."""
        if self._slots is not None and self._slots[0] is graph:
            _, order, sides, _ = self._slots
        else:
            left, right, _, names = self._label_sets()
            named = [(w, 0 if w in left else 1) for w in names if w in left or w in right]
            order = [graph.index_of(w) for w, _ in named]
            sides = [s for _, s in named]
        return np.asarray(order, dtype=np.int64), np.asarray(sides, dtype=np.int8)


class _LocalBoundary:
    """``G'`` renumbered ``0..b-1`` in ``repr`` order.

    Local id ``i`` is the ``i``-th ``G'`` node in the base graph's per-run
    :meth:`~repro.core.graph.Graph.repr_ranks` order, so an integer heap
    key ``deg * b + i`` ranks by degree first and ``repr`` second.
    ``slots`` maps local ids to base slots and ``by_slot`` lists the local
    ids in base-slot order.  Node ``i``'s neighbours are
    ``nbrs[start[i]:start[i + 1]]`` in CSR row order: flat python lists,
    because the completion loop is sequential and a list per node would
    only feed the garbage collector.  ``side`` gives each node's color
    class.
    """

    __slots__ = ("base", "slots", "by_slot", "side", "nbrs", "start")

    def __init__(self, boundary: BoundaryGraph) -> None:
        base, side, slots, _ = boundary.arrays()
        b = len(slots)
        by_rank = np.argsort(base.repr_ranks()[slots])
        slots = slots[by_rank]
        local = np.full(base.num_nodes, -1, dtype=np.int64)
        local[slots] = np.arange(b, dtype=np.int64)
        owners, nbrs = boundary.cross_entries()
        owners = local[owners]
        # Group the entries by local owner, keeping CSR order within a row.
        grouped = np.argsort(owners, kind="stable")
        start = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=b), out=start[1:])
        by_slot = np.empty(b, dtype=np.int64)
        by_slot[by_rank] = np.arange(b, dtype=np.int64)
        self.base = base
        self.slots = slots.tolist()
        self.by_slot = by_slot.tolist()
        self.side = side[slots].tolist()
        self.nbrs = local[nbrs][grouped].tolist()
        self.start = start.tolist()

    def result(self, order: list[int], losers: list[int]) -> CompletionResult:
        slots = self.slots
        return CompletionResult.from_slots(
            self.base,
            [slots[i] for i in order],
            [self.side[i] for i in order],
            [slots[i] for i in losers],
        )


def _greedy(
    view: _LocalBoundary,
    variant: str,
    rng: random.Random | None,
    pool_of: list[int] | None = None,
    choose: Callable[[list[int]], int] | None = None,
    commit: Callable[[int, int], None] | None = None,
) -> tuple[list[int], list[int]]:
    """Run the greedy on ``G'``'s local ids; returns ``(winners in order, losers)``.

    The graph is never copied or mutated: each node's current key
    ``deg * b + i`` (degree first, ``repr`` order second, no string
    comparison; -1 once the node is gone) and, for ``min_loser_weight``,
    its running neighbour-weight sum live in flat lists.  Each pool keeps
    a min-heap of keys, or of ``(neighbour weight, key)`` pairs; an entry
    is stale once it differs from its node's current key (or weight),
    and stale entries are simply discarded on pop.  A full run costs
    ``O((V + E) log E)``.

    Without ``choose`` there is one pool.  The engineer's rule passes
    each node's pool (its side) in ``pool_of``; ``choose(count)`` then
    names the pool of every pick from the live count per pool, and
    ``commit(winner, pool)`` sees every pick.
    """
    if variant not in VARIANTS:
        raise CompletionError(
            f"unknown Complete-Cut variant {variant!r}; choose from {VARIANTS}"
        )
    nbrs, start = view.nbrs, view.start
    b = len(view.slots)
    pool_of = pool_of or [0] * b
    key = [(start[i + 1] - start[i]) * b + i for i in range(b)]
    entries: list = list(key)
    weight = wsum = None
    if variant == "min_loser_weight":
        weights = view.base.weights_view()
        weight = [weights[slot] for slot in view.slots]
        wsum = [sum(weight[j] for j in nbrs[start[i] : start[i + 1]]) for i in range(b)]
        entries = list(zip(wsum, entries))
    num_pools = 1 if choose is None else 2
    heaps = [[e for e, p in zip(entries, pool_of) if p == q] for q in range(num_pools)]
    for heap in heaps:
        heapq.heapify(heap)
    heap_of = [heaps[p] for p in pool_of]
    count = [pool_of.count(q) for q in range(num_pools)]
    pop, push = heapq.heappop, heapq.heappush
    randomized = variant == "random_min_degree"
    order: list[int] = []
    losers: list[int] = []
    remaining = b
    while remaining:
        pool = 0 if choose is None else choose(count)
        heap = heaps[pool]
        if wsum is None:
            k = heap[0]
            while key[k % b] != k:
                pop(heap)
                k = heap[0]
            winner = k % b
        else:
            while True:
                ws, k = heap[0]
                winner = k % b
                if key[winner] == k and wsum[winner] == ws:
                    break
                pop(heap)
        if randomized:
            # Every live minimum-degree node of the pool, in base-slot order.
            lowest = k // b
            candidates = [
                j for j in view.by_slot
                if key[j] >= 0 and pool_of[j] == pool and key[j] // b == lowest
            ]
            winner = candidates[(rng or random).randrange(len(candidates))]
        order.append(winner)
        if commit is not None:
            commit(winner, pool)
        key[winner] = -1
        beaten = []
        for j in nbrs[start[winner] : start[winner + 1]]:
            if key[j] >= 0:
                key[j] = -1
                beaten.append(j)
        remaining -= 1 + len(beaten)
        if choose is not None:
            for x in (winner, *beaten):
                count[pool_of[x]] -= 1
        for x in beaten:
            for j in nbrs[start[x] : start[x + 1]]:
                k = key[j]
                if k >= 0:
                    # One live neighbour fewer: the degree part drops by one.
                    key[j] = k = k - b
                    if wsum is None:
                        push(heap_of[j], k)
                    else:
                        wsum[j] -= weight[x]
                        push(heap_of[j], (wsum[j], k))
        losers += beaten
    return order, losers


def complete_cut(
    boundary: BoundaryGraph,
    variant: str = "min_degree",
    rng: random.Random | None = None,
) -> CompletionResult:
    """Run Complete-Cut on the boundary graph (unweighted form).

    Isolated ``G'`` nodes are winners for free (no neighbour is forced to
    lose).  Runs in ``O((V + E) log E)`` via lazy-heap winner selection.
    """
    view = _LocalBoundary(boundary)
    order, losers = _greedy(view, variant, rng)
    obs.count("complete_cut.runs")
    obs.count("complete_cut.winners", len(order))
    obs.count("complete_cut.losers", len(losers))
    return view.result(order, losers)


def _pin_rows(
    view: _LocalBoundary,
    hypergraph: Hypergraph,
    assigned: Mapping[Vertex, str] | PartialBipartition | None,
) -> tuple[HypergraphIndex, list[int], list[int]]:
    """``(index, rows, sides)``: vertex tables, each ``G'`` node's pin row, placed sides."""
    if isinstance(assigned, PartialBipartition) and assigned.sides is not None:
        # The dual's own tables: G's slots are the index's edge rows.
        return assigned.index, view.slots, assigned.sides.tolist()
    index = HypergraphIndex(hypergraph)
    row_of = {name: i for i, name in enumerate(hypergraph.edge_names)}
    labels = view.base.labels_view()
    if isinstance(assigned, PartialBipartition):
        left, right = assigned.placed_left, assigned.placed_right
    else:
        assigned = assigned or {}
        left = [v for v, s in assigned.items() if s == "L"]
        right = [v for v, s in assigned.items() if s == "R"]
    sides = index.sides_of(left, right).tolist()
    return index, [row_of[labels[slot]] for slot in view.slots], sides


def complete_cut_weighted(
    boundary: BoundaryGraph,
    hypergraph: Hypergraph,
    initial_left_weight: float,
    initial_right_weight: float,
    assigned: Mapping[Vertex, str] | PartialBipartition | None = None,
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
        Vertex -> side ("L"/"R") for vertices already placed, or the
        :class:`PartialBipartition` that placed them; winner hyperedges
        only add the weight of their not-yet-assigned pins, in vertex
        order.
    """
    view = _LocalBoundary(boundary)
    index, rows, sides = _pin_rows(view, hypergraph, assigned)
    ptr, pins = index.pin_lists()
    weight = index.weights.tolist()
    side_weight = [float(initial_left_weight), float(initial_right_weight)]

    def choose(count: list[int]) -> int:
        lighter = 0 if side_weight[0] <= side_weight[1] else 1
        return lighter if count[lighter] else 1 - lighter

    def commit(winner: int, side: int) -> None:
        row = rows[winner]
        for pin in pins[ptr[row] : ptr[row + 1]]:
            if sides[pin] < 0:
                sides[pin] = side
                side_weight[side] += weight[pin]

    order, losers = _greedy(view, variant, rng, view.side, choose, commit)
    obs.count("complete_cut.weighted_runs")
    obs.count("complete_cut.winners", len(order))
    obs.count("complete_cut.losers", len(losers))
    return view.result(order, losers)


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
