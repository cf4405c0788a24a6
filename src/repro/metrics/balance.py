"""Balance criteria: bisection, r-bipartition, and weight equipartition.

"In practice, there is little reason to insist that the numbers of nodes
on either side of the cut be exactly equal" (Section 1) — the paper works
with the relaxed criteria implemented here.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Set

from repro.core.hypergraph import Hypergraph
from repro.core.partition import imbalance_fraction

Vertex = Hashable


def cardinality_imbalance(hypergraph: Hypergraph, left: Set[Vertex]) -> int:
    """``| |V_L| - |V_R| |`` for the cut defined by ``left``."""
    n_left = len(left)
    return abs(n_left - (hypergraph.num_vertices - n_left))


def is_bisection(hypergraph: Hypergraph, left: Set[Vertex]) -> bool:
    """The paper's bisection criterion: cardinality difference <= 1."""
    return cardinality_imbalance(hypergraph, left) <= 1


def satisfies_r_bipartition(hypergraph: Hypergraph, left: Set[Vertex], r: int) -> bool:
    """Fiduccia–Mattheyses r-bipartition: cardinality difference <= r."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return cardinality_imbalance(hypergraph, left) <= r


def _side_weights(hypergraph: Hypergraph, left: Set[Vertex]) -> tuple[float, float]:
    """Exact (``math.fsum``) weights of ``left`` and of the rest."""
    wl = math.fsum(hypergraph.vertex_weight(v) for v in left)
    wr = math.fsum(hypergraph.vertex_weight(v) for v in hypergraph.vertices if v not in left)
    return wl, wr


def weight_imbalance(hypergraph: Hypergraph, left: Set[Vertex]) -> float:
    """``| w(V_L) - w(V_R) |`` — module-area imbalance in the VLSI paradigm."""
    wl, wr = _side_weights(hypergraph, left)
    return abs(wl - wr)


def weight_imbalance_fraction(hypergraph: Hypergraph, left: Set[Vertex]) -> float:
    """Weight imbalance normalized by total weight; 0 = perfect equipartition.

    The same definition as :attr:`Bipartition.weight_imbalance_fraction`
    (:func:`~repro.core.partition.imbalance_fraction`), equal to it
    exactly for the same cut.
    """
    return imbalance_fraction(*_side_weights(hypergraph, left))


def within_weight_tolerance(
    hypergraph: Hypergraph, left: Set[Vertex], tolerance: float
) -> bool:
    """True when each side's weight is within ``(1 ± tolerance) * total / 2``.

    This is the balance criterion FM-style movers enforce during passes.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    total = hypergraph.total_vertex_weight
    wl = math.fsum(hypergraph.vertex_weight(v) for v in left)
    half = total / 2.0
    return abs(wl - half) <= tolerance * half
