"""Bipartition value object and its quality measures.

A *cut* of a hypergraph ``H`` is a partition of its vertex set into two
disjoint non-empty sets ``V_L`` and ``V_R``.  A hyperedge *crosses* the cut
when it has pins on both sides; the *size* of the cut is the number of
crossing hyperedges (or their total weight, in the weighted setting).

:class:`Bipartition` freezes one such cut and exposes all the quality
measures the paper discusses: cutsize, cardinality balance, the
r-bipartition criterion of Fiduccia–Mattheyses, weight balance for the
engineer's rule, and quotient/ratio-cut objectives.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator
from functools import cached_property

from repro.core.hypergraph import Hypergraph

Vertex = Hashable
EdgeName = Hashable


def imbalance_fraction(left_weight: float, right_weight: float) -> float:
    """``|w_L - w_R| / (w_L + w_R)``: 0 is a perfect equipartition.

    The one definition shared by :class:`Bipartition`, the metrics
    package and the service's result verification, so a claimed and a
    recomputed fraction of the same cut compare equal exactly.
    """
    total = left_weight + right_weight
    if total == 0:
        return 0.0
    return abs(left_weight - right_weight) / total


class PartitionError(ValueError):
    """Raised when a bipartition is structurally invalid for its hypergraph."""


class Bipartition:
    """An immutable two-way partition of a hypergraph's vertices.

    Parameters
    ----------
    hypergraph:
        The partitioned hypergraph (held by reference; must not be mutated
        while the bipartition is in use).
    left, right:
        Disjoint vertex sets whose union is exactly the vertex set of
        ``hypergraph``.  Both must be non-empty unless the hypergraph has
        fewer than two vertices.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
    ) -> None:
        self._h = hypergraph
        self._left = frozenset(left)
        self._right = frozenset(right)
        self._check()

    def _check(self) -> None:
        overlap = self._left & self._right
        if overlap:
            raise PartitionError(f"sides overlap on {sorted(map(repr, overlap))[:5]}")
        all_vertices = set(self._h.vertices)
        union = self._left | self._right
        if union != all_vertices:
            missing = all_vertices - union
            extra = union - all_vertices
            raise PartitionError(
                f"partition does not cover the vertex set "
                f"(missing={sorted(map(repr, missing))[:5]}, extra={sorted(map(repr, extra))[:5]})"
            )
        if len(all_vertices) >= 2 and (not self._left or not self._right):
            raise PartitionError("both sides of a cut must be non-empty")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    @property
    def left(self) -> frozenset[Vertex]:
        return self._left

    @property
    def right(self) -> frozenset[Vertex]:
        return self._right

    def side_of(self, v: Vertex) -> str:
        """``"L"`` or ``"R"``; raises for unknown vertices."""
        if v in self._left:
            return "L"
        if v in self._right:
            return "R"
        raise PartitionError(f"vertex {v!r} not in partition")

    def swapped(self) -> "Bipartition":
        """The same cut with sides exchanged."""
        return Bipartition(self._h, self._right, self._left)

    def move(self, v: Vertex) -> "Bipartition":
        """A new bipartition with ``v`` moved to the other side."""
        if v in self._left:
            return Bipartition(self._h, self._left - {v}, self._right | {v})
        if v in self._right:
            return Bipartition(self._h, self._left | {v}, self._right - {v})
        raise PartitionError(f"vertex {v!r} not in partition")

    # ------------------------------------------------------------------
    # cut measures
    # ------------------------------------------------------------------

    def edge_crosses(self, name: EdgeName) -> bool:
        """True when hyperedge ``name`` has pins on both sides."""
        members = self._h.edge_members(name)
        return bool(members & self._left) and bool(members & self._right)

    def _crossing(self) -> Iterator[EdgeName]:
        """Names of the crossing hyperedges, in edge order."""
        # Walk pins with early exit instead of building two intersection
        # sets per edge.
        left = self._left
        for name, members in self._h.iter_edges():
            has_l = has_r = False
            for p in members:
                if p in left:
                    has_l = True
                else:
                    has_r = True
                if has_l and has_r:
                    yield name
                    break
            # pins outside both sides cannot occur: _check() enforced cover

    @cached_property
    def crossing_edges(self) -> frozenset[EdgeName]:
        """Names of all hyperedges that cross the cut (built on first read)."""
        return frozenset(self._crossing())

    @cached_property
    def _cut_totals(self) -> tuple[int, float]:
        """``(cutsize, weighted_cutsize)`` from one pin walk."""
        weights = list(map(self._h.edge_weight, self._crossing()))
        return len(weights), math.fsum(weights)

    @property
    def cutsize(self) -> int:
        """Number of crossing hyperedges — the paper's objective."""
        return self._cut_totals[0]

    @property
    def weighted_cutsize(self) -> float:
        """Total weight of crossing hyperedges (an exact sum: order-free)."""
        return self._cut_totals[1]

    # ------------------------------------------------------------------
    # balance measures
    # ------------------------------------------------------------------

    @property
    def cardinality_imbalance(self) -> int:
        """``| |V_L| - |V_R| |`` — zero or one for a bisection."""
        return abs(len(self._left) - len(self._right))

    def is_bisection(self) -> bool:
        """True when ``| |V_L| - |V_R| | <= 1`` (the paper's definition)."""
        return self.cardinality_imbalance <= 1

    def satisfies_r_bipartition(self, r: int) -> bool:
        """Fiduccia–Mattheyses r-criterion: cardinality difference <= r."""
        if r < 0:
            raise ValueError("r must be non-negative")
        return self.cardinality_imbalance <= r

    @cached_property
    def left_weight(self) -> float:
        # Exact sums: set iteration order (hash-seed dependent for str
        # labels) can never change the result.
        return math.fsum(self._h.vertex_weight(v) for v in self._left)

    @cached_property
    def right_weight(self) -> float:
        return math.fsum(self._h.vertex_weight(v) for v in self._right)

    @property
    def weight_imbalance(self) -> float:
        """``| w(V_L) - w(V_R) |`` in absolute weight units."""
        return abs(self.left_weight - self.right_weight)

    @property
    def weight_imbalance_fraction(self) -> float:
        """Weight imbalance normalized by total weight (0 = perfect)."""
        return imbalance_fraction(self.left_weight, self.right_weight)

    # ------------------------------------------------------------------
    # alternative objectives (Section 5 / quotient cut discussion)
    # ------------------------------------------------------------------

    @property
    def quotient_cut(self) -> float:
        """Quotient cut ``e(V_L, V_R) / min(|V_L|, |V_R|)``."""
        smaller = min(len(self._left), len(self._right))
        if smaller == 0:
            return float("inf")
        return self.cutsize / smaller

    @property
    def ratio_cut(self) -> float:
        """Ratio cut ``e(V_L, V_R) / (|V_L| * |V_R|)`` (Leighton–Rao style)."""
        product = len(self._left) * len(self._right)
        if product == 0:
            return float("inf")
        return self.cutsize / product

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[Vertex, str]:
        """Vertex -> side label mapping (``"L"`` / ``"R"``)."""
        out = {v: "L" for v in self._left}
        out.update({v: "R" for v in self._right})
        return out

    def __eq__(self, other: object) -> bool:
        """Side-symmetric equality: a cut equals its own swap."""
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self._h is other._h and {self._left, self._right} == {other._left, other._right}

    def __hash__(self) -> int:
        return hash((id(self._h), frozenset((self._left, self._right))))

    def __repr__(self) -> str:
        return (
            f"Bipartition(|L|={len(self._left)}, |R|={len(self._right)}, "
            f"cutsize={self.cutsize})"
        )


def bipartition_from_sides(
    hypergraph: Hypergraph, left: Iterable[Vertex]
) -> Bipartition:
    """Convenience: build a bipartition from the left side only."""
    left_set = frozenset(left)
    right_set = frozenset(hypergraph.vertices) - left_set
    return Bipartition(hypergraph, left_set, right_set)
