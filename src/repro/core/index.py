"""Integer tables of a hypergraph, shared by every engine that walks it.

A :class:`HypergraphIndex` freezes one hypergraph into integer ids:
vertex ``i`` is ``hypergraph.vertices[i]`` and edge row ``e`` is the
``e``-th name of ``hypergraph.edge_names``, its pins listed as ascending
vertex ids.  Algorithm I's dual graph and per-start steps run on its
numpy tables (it is built inside
:func:`repro.core.intersection.intersection_graph`), and the move-based
engines' :class:`repro.baselines.cutstate.CutState` runs
on its python-list views.  Labels are converted only at the edges of a
run: when a side is given as a label set, and when a result becomes a
:class:`Bipartition`.

Keeping ids in vertex order keeps every float sum over vertices in the
order the label-space code summed them, and the ``repr`` ranks keep
every ``repr`` tie-break: vertices whose labels share a ``repr`` rank in
vertex order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import chain, compress

import numpy as np

from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.partition import Bipartition

EdgeName = Hashable
Vertex = Hashable


def _pin_table(
    hypergraph: Hypergraph, names: Iterable[EdgeName], vertex_id: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ptr, pins, pin_edge)``: each named edge's pins as ascending vertex ids.

    Row ``e`` is ``pins[ptr[e]:ptr[e + 1]]``; ``pin_edge`` repeats each row
    number once per pin.  Sorting the rows makes every walk over them
    independent of frozenset iteration order (and so of
    ``PYTHONHASHSEED`` for str labels).
    """
    members = list(map(hypergraph.edge_members, names))
    sizes = np.fromiter(map(len, members), count=len(members), dtype=np.int64)
    ptr = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    try:
        pins = np.fromiter(
            map(vertex_id.__getitem__, chain.from_iterable(members)),
            count=int(ptr[-1]),
            dtype=np.int64,
        )
    except KeyError as exc:
        raise HypergraphError(f"pin {exc.args[0]!r} is not an indexed vertex") from None
    pin_edge = np.repeat(np.arange(len(members), dtype=np.int64), sizes)
    # Rows are contiguous, so sorting (row, pin) keys sorts within rows.
    offset = pin_edge * max(len(vertex_id), 1)
    return ptr, np.sort(offset + pins) - offset, pin_edge


def _split(flat: list[int], ptr: list[int]) -> list[list[int]]:
    """``flat`` cut into the rows ``flat[ptr[k]:ptr[k + 1]]``."""
    return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


class HypergraphIndex:
    """Vertex ids, edge rows and weights of one hypergraph.

    ``weights`` and ``edge_weights`` are float64 arrays over vertex ids
    and edge rows; ``pin_ptr``/``pins``/``pin_edge`` are the edge rows in
    CSR form, and :meth:`incidence_table` the vertex rows.  ``lpt_order``
    lists the vertex ids heaviest first, ties by ``repr`` (Algorithm I's
    leftover-balance order), and ``lightest`` is the id minimising
    ``(weight, repr)`` (its donor when a side comes out empty).  The
    python-list views the move-based engines walk (:meth:`edge_rows`,
    :meth:`incidence`, :meth:`ranks`) are built on first use and kept.
    """

    __slots__ = (
        "hypergraph", "vertices", "weights", "pin_ptr", "pins", "pin_edge",
        "edge_weights", "lpt_order", "lightest", "_vertex_id", "_pin_lists",
        "_edge_rows", "_incidence_table", "_incidence", "_ranks", "_cut_cache",
    )

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph = hypergraph
        vertices = hypergraph.vertices
        self.vertices = vertices
        self._vertex_id = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        self.weights = np.fromiter(map(hypergraph.vertex_weight, vertices), np.float64, n)
        names = hypergraph.edge_names
        self.pin_ptr, self.pins, self.pin_edge = _pin_table(hypergraph, names, self._vertex_id)
        self.edge_weights = np.fromiter(map(hypergraph.edge_weight, names), np.float64, len(names))
        # np.lexsort is stable, so (weight, repr) ties keep vertex order.
        reprs = np.array([repr(v) for v in vertices], dtype=str)
        self.lpt_order = np.lexsort((reprs, -self.weights))
        self.lightest = int(np.lexsort((reprs, self.weights))[0]) if n else -1
        self._pin_lists = None
        self._edge_rows = None
        self._incidence_table = None
        self._incidence = None
        self._ranks = None
        self._cut_cache = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_weights)

    # ------------------------------------------------------------------
    # labels <-> ids
    # ------------------------------------------------------------------

    def ids_of(self, labels: Iterable[Vertex]) -> list[int]:
        """The ids of ``labels``; raises :class:`HypergraphError` on an unknown one."""
        try:
            return list(map(self._vertex_id.__getitem__, labels))
        except KeyError as exc:
            raise HypergraphError(f"no such vertex {exc.args[0]!r}") from None

    def id_of(self, label: Vertex) -> int:
        return self.ids_of((label,))[0]

    def sides_of(self, left: Iterable[Vertex], right: Iterable[Vertex]) -> np.ndarray:
        """The int8 vertex-side array of two label sets (unlisted vertices -1)."""
        sides = np.full(len(self.vertices), -1, dtype=np.int8)
        for side, labels in ((0, left), (1, right)):
            sides[np.array(self.ids_of(labels), dtype=np.int64)] = side
        return sides

    def labels_of(self, sides, side: int) -> set[Vertex]:
        """Labels of the vertices on ``side`` of a vertex-side array or list, as a set."""
        if isinstance(sides, np.ndarray):
            vertices = self.vertices
            return {vertices[i] for i in np.flatnonzero(sides == side).tolist()}
        return set(compress(self.vertices, [s == side for s in sides]))

    def bipartition(self, original: Hypergraph, sides) -> Bipartition:
        """The :class:`Bipartition` of ``original`` a full side array or list describes."""
        # Sets, not lists: frozenset(set) sizes its table for the final
        # count, frozenset(list) grows it by insertion to twice that.
        return Bipartition(original, self.labels_of(sides, 0), self.labels_of(sides, 1))

    # ------------------------------------------------------------------
    # python-list views
    # ------------------------------------------------------------------

    def pin_lists(self) -> tuple[list[int], list[int]]:
        """``(ptr, pins)`` as python lists, for sequential per-pin walks."""
        if self._pin_lists is None:
            self._pin_lists = (self.pin_ptr.tolist(), self.pins.tolist())
        return self._pin_lists

    def edge_rows(self) -> list[list[int]]:
        """Each edge row's pins, ascending."""
        if self._edge_rows is None:
            ptr, pins = self.pin_lists()
            self._edge_rows = _split(pins, ptr)
        return self._edge_rows

    def incidence_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, rows)``: each vertex's incident edge rows, ascending, in CSR form.

        Vertex ``i``'s rows are ``rows[ptr[i]:ptr[i + 1]]``.  Built on
        first use and kept; the dual graph and :meth:`incidence` read it.
        """
        if self._incidence_table is None:
            # A stable sort of the pins keeps each vertex's rows in row order.
            by_vertex = np.argsort(self.pins, kind="stable")
            ptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.pins, minlength=self.num_vertices), out=ptr[1:])
            self._incidence_table = (ptr, self.pin_edge[by_vertex])
        return self._incidence_table

    def incidence(self) -> list[list[int]]:
        """Each vertex's incident edge rows, ascending."""
        if self._incidence is None:
            ptr, rows = self.incidence_table()
            self._incidence = _split(rows.tolist(), ptr.tolist())
        return self._incidence

    def ranks(self) -> tuple[list[int], list[int]]:
        """``(order, rank)``: the ids in ``repr`` order, and each id's place in it.

        The sort is stable, so labels with equal ``repr`` keep vertex order.
        """
        if self._ranks is None:
            reprs = list(map(repr, self.vertices))
            order = sorted(range(len(reprs)), key=reprs.__getitem__)
            rank = [0] * len(order)
            for r, v in enumerate(order):
                rank[v] = r
            self._ranks = (order, rank)
        return self._ranks

    def crossing(self, sides: np.ndarray, original: Hypergraph) -> np.ndarray:
        """Which rows of ``cut_table(original)`` a full vertex-side array cuts.

        A row is cut when it has some but not all of its pins on side 0.
        """
        ptr, pins, pin_edge, _ = self.cut_table(original)
        left_pins = np.bincount(pin_edge[sides[pins] == 0], minlength=len(ptr) - 1)
        return (left_pins > 0) & (left_pins < np.diff(ptr))

    def cut_table(
        self, original: Hypergraph
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ptr, pins, pin_edge, edge_weights)`` over ``original``'s edges.

        ``original`` is the hypergraph the cut is scored against: this
        index's own hypergraph, or the unfiltered one it was filtered
        from (same vertices, and every edge of this one plus the
        filtered-out ones).  The latter's table appends rows for the
        filtered-out edges; it is built on first use and kept.
        """
        if original is self.hypergraph:
            return self.pin_ptr, self.pins, self.pin_edge, self.edge_weights
        cached = self._cut_cache
        if cached is None or cached[0] is not original:
            working = self.hypergraph
            extra = [name for name in original.edge_names if not working.has_edge(name)]
            if len(extra) + working.num_edges != original.num_edges:
                raise HypergraphError("the scored hypergraph lacks edges of the indexed one")
            ptr, pins, pin_edge = _pin_table(original, extra, self._vertex_id)
            weights = np.fromiter(map(original.edge_weight, extra), np.float64, len(extra))
            rows = len(self.edge_weights)
            table = (
                np.concatenate((self.pin_ptr, ptr[1:] + self.pin_ptr[-1])),
                np.concatenate((self.pins, pins)),
                np.concatenate((self.pin_edge, pin_edge + rows)),
                np.concatenate((self.edge_weights, weights)),
            )
            cached = self._cut_cache = (original, table)
        return cached[1]
