"""Lawler expansion: hypergraph corridor -> s-t flow network.

The transform follows Lawler (1973): every signal (hyperedge) ``e``
with weight ``w(e)`` becomes a *bridge* node pair ``(e_in, e_out)``
joined by a directed arc of capacity ``w(e)``; every free pin ``v`` of
``e`` gets infinite-capacity arcs ``v -> e_in`` and ``e_out -> v``.
Any s-t cut of the expanded network can then only afford to cut bridge
arcs, so its value equals the weighted signal cut of the induced
module bipartition — max-flow min-cut gives the *exact* minimum
corridor cut.

Vertices outside the corridor stay on their current side and are
contracted into the source (left) or sink (right):

* a signal whose pins are all fixed on one side never appears in the
  network (it is uncuttable *and* cost-free),
* a signal fixed on *both* sides is cut no matter what the corridor
  does; its weight is accumulated into ``base_cut_weight`` instead of
  the network (a log-style constant, not a silent omission),
* a signal with at least one free pin becomes a bridge pair whose
  fixed pins attach directly to the source/sink node.

The builder is deterministic: node ids follow hypergraph insertion
order (``h.vertices`` / ``h.iter_edges()``), never set-iteration order,
so the same input yields byte-identical arc arrays across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.core.hypergraph import Hypergraph

__all__ = ["FlowNetwork", "FlowNetworkError", "lawler_network", "INFINITE"]

# Pin arcs must never be the bottleneck of an augmenting path nor sit in
# a finite min cut.  ``math.inf`` works with the paired-arc residual
# update (inf - f == inf), and every s-t path crosses at least one
# finite bridge arc, so augmentation bottlenecks stay finite.
INFINITE = float("inf")

SOURCE = 0
SINK = 1


class FlowNetworkError(ValueError):
    """Raised for malformed corridor specifications."""


@dataclass
class FlowNetwork:
    """Arc-array flow network (CSR-style: flat paired arcs + adjacency).

    Arc ``i`` and arc ``i ^ 1`` are each other's reverse: pushing ``f``
    units along ``i`` decrements ``arc_cap[i]`` and increments
    ``arc_cap[i ^ 1]``, so ``arc_cap`` always holds *residual*
    capacity.  Node ids: 0 = source (contracted left side), 1 = sink
    (contracted right side), ``2 + i`` = ``free_vertices[i]``, then two
    bridge nodes per bridged signal in edge order.
    """

    num_nodes: int
    arc_to: List[int]
    arc_cap: List[float]
    adj: List[List[int]]
    free_vertices: Tuple[object, ...]
    bridge_edges: Tuple[str, ...]
    base_cut_weight: float
    source: int = SOURCE
    sink: int = SINK
    node_weight: List[float] = field(default_factory=list)

    def add_arc(self, u: int, v: int, cap: float) -> int:
        """Append the paired arc ``u -> v`` / ``v -> u`` (reverse cap 0)."""
        idx = len(self.arc_to)
        self.arc_to.append(v)
        self.arc_cap.append(cap)
        self.adj[u].append(idx)
        self.arc_to.append(u)
        self.arc_cap.append(0.0)
        self.adj[v].append(idx + 1)
        return idx


def lawler_network(
    h: Hypergraph,
    fixed_left: Iterable[object],
    fixed_right: Iterable[object],
    free: Sequence[object],
) -> FlowNetwork:
    """Build the Lawler-expanded s-t network for one corridor solve.

    ``fixed_left`` is contracted into the source, ``fixed_right`` into
    the sink, and ``free`` (ordered!) supplies the movable module
    nodes.  The three sets must be disjoint and cover every pin of
    every signal they touch; vertices of ``h`` mentioned in none of
    them may not appear as pins alongside corridor vertices.
    """
    left = set(fixed_left)
    right = set(fixed_right)
    free_tuple = tuple(free)
    free_set = set(free_tuple)
    if len(free_tuple) != len(free_set):
        raise FlowNetworkError("free vertex list contains duplicates")
    if left & right:
        raise FlowNetworkError("fixed sides overlap")
    if (left | right) & free_set:
        raise FlowNetworkError("free vertices overlap a fixed side")
    if not left or not right:
        raise FlowNetworkError("both fixed sides must be non-empty")
    known = left | right | free_set
    for v in known:
        if v not in h:
            raise FlowNetworkError(f"unknown vertex {v!r}")

    num_free = len(free_tuple)
    net = FlowNetwork(
        num_nodes=2 + num_free,
        arc_to=[],
        arc_cap=[],
        adj=[[], []] + [[] for _ in range(num_free)],
        free_vertices=free_tuple,
        bridge_edges=(),
        base_cut_weight=0.0,
    )
    net.node_weight = [0.0, 0.0] + [float(h.vertex_weight(v)) for v in free_tuple]
    vertex_node = {v: 2 + i for i, v in enumerate(free_tuple)}

    bridge_edges: List[str] = []
    base_cut = 0.0
    for name in h.edge_names:
        members = h.edge_members(name)
        touches_free = any(v in free_set for v in members)
        touches_left = any(v in left for v in members)
        touches_right = any(v in right for v in members)
        unknown = [v for v in members if v not in known]
        if unknown:
            if touches_free:
                raise FlowNetworkError(
                    f"signal {name!r} mixes corridor pins with unmapped "
                    f"vertices {unknown!r}"
                )
            # Fully outside the corridor specification: irrelevant.
            continue
        if not touches_free:
            if touches_left and touches_right:
                # Cut no matter what the corridor decides.
                base_cut += float(h.edge_weight(name))
            continue
        weight = float(h.edge_weight(name))
        e_in = net.num_nodes
        e_out = e_in + 1
        net.num_nodes += 2
        net.adj.append([])
        net.adj.append([])
        net.node_weight.extend((0.0, 0.0))
        net.add_arc(e_in, e_out, weight)
        pin_nodes = set()
        for v in members:
            if v in free_set:
                pin_nodes.add(vertex_node[v])
            elif v in left:
                pin_nodes.add(SOURCE)
            else:
                pin_nodes.add(SINK)
        # Sorted by node id: edge members are frozensets whose iteration
        # order is hash-seed dependent, and arc ids must be stable
        # across processes for byte-identical results.
        for node in sorted(pin_nodes):
            net.add_arc(node, e_in, INFINITE)
            net.add_arc(e_out, node, INFINITE)
        bridge_edges.append(name)

    net.bridge_edges = tuple(bridge_edges)
    net.base_cut_weight = base_cut
    return net
