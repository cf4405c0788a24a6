"""Cutsize metrics — the paper's objective and Table 1's crossing statistics.

These functions take a hypergraph and the ``left`` side of a cut, so a
candidate assignment can be evaluated without building a
:class:`~repro.core.partition.Bipartition`.  ``Bipartition`` keeps its
own walk over the pins; ``tests/test_metrics.py``'s
``TestConsistencyWithBipartition`` holds the two equal.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Set

from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition

Vertex = Hashable
EdgeName = Hashable


def crossing_edges(hypergraph: Hypergraph, left: Set[Vertex]) -> frozenset[EdgeName]:
    """Hyperedges with pins on both sides of the cut defined by ``left``."""
    crossing = []
    for name in hypergraph.edge_names:
        members = hypergraph.edge_members(name)
        saw_left = saw_right = False
        for pin in members:
            if pin in left:
                saw_left = True
            else:
                saw_right = True
            if saw_left and saw_right:
                crossing.append(name)
                break
    return frozenset(crossing)


def cutsize(hypergraph: Hypergraph, left: Set[Vertex]) -> int:
    """Number of hyperedges crossing the cut ``(left, V - left)``."""
    return len(crossing_edges(hypergraph, left))


def weighted_cutsize(hypergraph: Hypergraph, left: Set[Vertex]) -> float:
    """Total weight of crossing hyperedges (an exact sum: order-free)."""
    return math.fsum(hypergraph.edge_weight(name) for name in crossing_edges(hypergraph, left))


def crossing_fraction_by_size(
    bipartition: Bipartition, thresholds: Iterable[int] = (20, 14, 8)
) -> dict[int, float]:
    """Table 1 statistic: fraction of size->=k hyperedges that cross the cut.

    For each threshold ``k`` returns ``crossing(k) / count(k)`` over edges
    of size at least ``k``; thresholds with no such edges map to
    ``float("nan")`` so callers can distinguish "no data" from 0%.
    """
    h = bipartition.hypergraph
    out: dict[int, float] = {}
    for k in thresholds:
        big = [name for name in h.edge_names if h.edge_size(name) >= k]
        if not big:
            out[k] = float("nan")
            continue
        crossed = sum(1 for name in big if bipartition.edge_crosses(name))
        out[k] = crossed / len(big)
    return out
