"""Cutting the intersection graph: random longest BFS paths + double BFS.

This module implements steps <1> and <2> of Algorithm I:

<1> Pick an arbitrary (random) node ``u`` in ``G`` and use BFS to find a
    node ``v`` furthest from ``u`` — a *random longest BFS path*.  The
    paper's Section 3 theorem justifies this as a pseudo-diameter: for a
    connected random graph of bounded degree the BFS depth from a random
    node equals ``diam(G) - O(1)`` with probability near 1.

<2> Grow BFS regions from ``u`` and ``v`` simultaneously until the two
    expanding sets meet; the meeting line is a cut of ``G`` into node sets
    ``V_L`` (grown from ``u``) and ``V_R`` (grown from ``v``).  Nodes of
    one side adjacent to the other side form the *boundary set* ``B``.

Every non-boundary G-node is a hyperedge of ``H`` whose pins are wholly
committed to one side — together they induce a *partial bipartition* of
the H-vertices which is provably consistent (two non-boundary nodes on
opposite sides cannot share an H-vertex, else they would be adjacent and
therefore boundary).
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Iterable

import numpy as np

from repro import obs
from repro.core.graph import Graph, GraphError
from repro.core.index import HypergraphIndex
from repro.core.intersection import IntersectionGraph

Node = Hashable
Vertex = Hashable


class DualCutError(ValueError):
    """Raised when a graph cut cannot be produced (e.g. empty graph)."""


def labels_where(labels: list, mask: np.ndarray) -> frozenset:
    """The labels at the positions ``mask`` selects."""
    return frozenset(labels[i] for i in np.flatnonzero(mask).tolist())


def slots_of(graph: Graph, nodes: Iterable[Node]) -> np.ndarray:
    """The slots of ``nodes`` in ``graph``, in iteration order."""
    return np.fromiter(map(graph.index_of, nodes), dtype=np.int64)


class LazyLabels:
    """A per-start result held as index arrays, with its label sets built on first read.

    Built from label sets, a subclass stores them in ``_sets``; built
    from arrays, it leaves ``_sets`` unset and :meth:`_build_sets` makes
    them from the arrays when a label field is first read.
    """

    _sets: tuple | None = None

    def _label_sets(self) -> tuple:
        if self._sets is None:
            self._sets = self._build_sets()
        return self._sets

    def _build_sets(self) -> tuple:
        raise NotImplementedError


def label_field(position: int) -> property:
    """A read-only field: entry ``position`` of the label sets."""
    return property(lambda self: self._label_sets()[position])


class GraphCut(LazyLabels):
    """A two-sided cut of the intersection graph ``G``.

    ``left`` / ``right`` partition all G-nodes; ``boundary_left`` /
    ``boundary_right`` are the subsets adjacent to the opposite side.

    A cut made by :func:`double_bfs_cut` is index-backed: it keeps the
    int8 side of every G slot and the cross mask of G's CSR entries, and
    builds the label sets only when they are first read.  A cut built
    from label sets (hand-made cuts in tests) derives its arrays on
    demand instead.
    """

    left = label_field(0)
    right = label_field(1)
    boundary_left = label_field(2)
    boundary_right = label_field(3)

    def __init__(
        self,
        left: Iterable[Node],
        right: Iterable[Node],
        boundary_left: Iterable[Node],
        boundary_right: Iterable[Node],
        seed_u: Node,
        seed_v: Node,
    ) -> None:
        self.seed_u = seed_u
        self.seed_v = seed_v
        self._sets = tuple(map(frozenset, (left, right, boundary_left, boundary_right)))
        self._graph = self._arrays = None

    @classmethod
    def from_sides(cls, graph: Graph, side: np.ndarray, seed_u: Node, seed_v: Node) -> "GraphCut":
        """The cut giving each slot of ``graph`` the side in ``side``."""
        csr = graph.csr()
        cross = side[csr.indices] != np.repeat(side, csr.degrees())
        # A node is boundary iff any CSR entry of its row crosses; per-row
        # "any" by prefix-sum differencing (reduceat mishandles empty rows).
        cs = np.concatenate(([0], np.cumsum(cross, dtype=np.int64)))
        on_boundary = cs[csr.indptr[1:]] > cs[csr.indptr[:-1]]
        cut = cls.__new__(cls)
        cut.seed_u, cut.seed_v = seed_u, seed_v
        cut._graph, cut._arrays = graph, (side, on_boundary, cross)
        return cut

    def arrays(self, graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(side, on_boundary, cross)`` over ``graph``'s slots and CSR entries.

        ``side`` is 0/1 per node, ``on_boundary``
        marks the boundary slots, and ``cross`` marks the CSR entries
        joining a left boundary node to a right one: the edges of ``G'``.
        """
        if self._graph is graph:
            return self._arrays
        left, right, boundary_left, boundary_right = self._label_sets()
        side = np.full(graph.num_nodes, -1, dtype=np.int8)
        side[slots_of(graph, left)] = 0
        side[slots_of(graph, right)] = 1
        on_boundary = np.zeros(graph.num_nodes, dtype=bool)
        on_boundary[slots_of(graph, boundary_left | boundary_right)] = True
        csr = graph.csr()
        owner = np.repeat(np.arange(graph.num_nodes), csr.degrees())
        nbr = csr.indices
        cross = (side[nbr] != side[owner]) & on_boundary[nbr] & on_boundary[owner]
        return side, on_boundary, cross

    def _build_sets(self) -> tuple:
        labels = self._graph.labels_view()
        side, on_boundary, _ = self._arrays
        return (
            labels_where(labels, side == 0),
            labels_where(labels, side == 1),
            labels_where(labels, (side == 0) & on_boundary),
            labels_where(labels, (side == 1) & on_boundary),
        )

    @property
    def boundary(self) -> frozenset[Node]:
        """The full boundary set ``B = B_L ∪ B_R``."""
        return self.boundary_left | self.boundary_right

    @property
    def boundary_size(self) -> int:
        """``|B|``, counted without building any label set."""
        if self._sets is None:
            return int(np.count_nonzero(self._arrays[1]))
        return len(self._sets[2]) + len(self._sets[3])

    @property
    def interior_left(self) -> frozenset[Node]:
        """Left nodes *not* on the boundary (signals that never cross)."""
        return self.left - self.boundary_left

    @property
    def interior_right(self) -> frozenset[Node]:
        return self.right - self.boundary_right


def _overlap_error(overlap: Iterable[Vertex]) -> DualCutError:
    return DualCutError(
        "inconsistent partial bipartition — vertices forced to both sides: "
        f"{sorted(map(repr, overlap))[:5]}"
    )


class PartialBipartition(LazyLabels):
    """Vertex placement implied by the non-boundary G-nodes.

    ``placed_left`` / ``placed_right`` are H-vertices forced to a side;
    ``free`` are H-vertices belonging only to boundary hyperedges (or to
    no hyperedge at all) — they are placed later, during completion.

    Made by :func:`partial_bipartition`, it is index-backed: ``sides``
    is the int8 vertex-side array over the dual's
    :class:`~repro.core.index.HypergraphIndex` (0 left, 1 right, -1
    free), and the label sets are built on first read.  It can also be
    built from label sets, which are checked for overlap.
    """

    placed_left = label_field(0)
    placed_right = label_field(1)
    free = label_field(2)

    def __init__(
        self,
        placed_left: Iterable[Vertex],
        placed_right: Iterable[Vertex],
        free: Iterable[Vertex] = frozenset(),
    ) -> None:
        self._sets = tuple(map(frozenset, (placed_left, placed_right, free)))
        overlap = self._sets[0] & self._sets[1]
        if overlap:
            raise _overlap_error(overlap)
        self.index: HypergraphIndex | None = None
        self.sides: np.ndarray | None = None

    @classmethod
    def from_sides(cls, index: HypergraphIndex, sides: np.ndarray) -> "PartialBipartition":
        partial = cls.__new__(cls)
        partial.index, partial.sides = index, sides
        return partial

    def _build_sets(self) -> tuple:
        return tuple(labels_where(self.index.vertices, self.sides == s) for s in (0, 1, -1))


def random_longest_bfs_path(
    graph: Graph,
    rng: random.Random | None = None,
    start: Node | None = None,
    double_sweep: bool = False,
) -> tuple[Node, Node, int]:
    """Step <1>: endpoints ``(u, v)`` of a random longest BFS path and its depth.

    ``u`` is ``start`` if given, else a node chosen uniformly at random;
    ``v`` is a node at maximum BFS distance from ``u`` (random among ties).
    With ``double_sweep=True`` a second sweep from ``v`` replaces ``u`` by
    a node furthest from ``v`` — a strictly better pseudo-diameter at the
    cost of one more BFS (still ``O(n^2)`` overall; listed in the paper's
    Extensions spirit).
    """
    if graph.num_nodes == 0:
        raise DualCutError("cannot find a BFS path in an empty graph")
    rng = rng if rng is not None else random.Random()
    if start is None:
        nodes = graph.nodes
        start = nodes[rng.randrange(len(nodes))]
    elif start not in graph:
        raise GraphError(f"no such node {start!r}")
    far, depth = graph.bfs_farthest(start, rng)
    obs.count("dual_cut.bfs_paths")
    if double_sweep:
        far2, depth2 = graph.bfs_farthest(far, rng)
        if depth2 >= depth:
            obs.gauge("dual_cut.last_bfs_depth", depth2)
            return far, far2, depth2
    obs.gauge("dual_cut.last_bfs_depth", depth)
    return start, far, depth


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

    # The whole growth race runs in index space on the graph's row lists,
    # each node's neighbors in ascending slot order.
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

    cut = GraphCut.from_sides(graph, np.asarray(side, dtype=np.int8), u, v)
    obs.count("dual_cut.cuts")
    obs.count("dual_cut.boundary_nodes", cut.boundary_size)
    return cut


def partial_bipartition(
    intersection: IntersectionGraph, cut: GraphCut
) -> PartialBipartition:
    """Project a graph cut of ``G`` down to a partial bipartition of ``H``.

    Every H-vertex belonging to some *non-boundary* hyperedge is forced to
    that hyperedge's side; vertices touched only by boundary hyperedges
    (or by nothing) stay free.  Consistency (no vertex forced both ways)
    is guaranteed by the boundary definition and re-checked here.
    """
    index = intersection.index
    side, on_boundary, _ = cut.arrays(intersection.graph)
    # Each pin takes its edge's side when the edge is interior, else -1.
    pin_side = np.where(on_boundary, -1, side)[index.pin_edge]
    forced = np.zeros((2, index.num_vertices), dtype=bool)
    forced[0, index.pins[pin_side == 0]] = True
    forced[1, index.pins[pin_side == 1]] = True
    both = forced[0] & forced[1]
    if both.any():
        raise _overlap_error(labels_where(index.vertices, both))
    sides = np.full(index.num_vertices, -1, dtype=np.int8)
    sides[forced[0]] = 0
    sides[forced[1]] = 1
    return PartialBipartition.from_sides(index, sides)
