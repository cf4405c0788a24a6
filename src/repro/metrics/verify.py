"""Independent re-verification of partition/place result bodies.

A partition result is served, cached, persisted, and benchmarked as a
canonical JSON body (``repro.server.protocol.canonical_bytes``).  Every
consumer of such a body takes its claims — the cut, the balance, the
assignment itself — on trust.  This module is the distrust: given the
original hypergraph, :func:`verify_partition_body` **recomputes** the
cut weight and balance from the returned assignment and cross-checks
every identity field, so a corrupted body (bit-rot, a buggy worker, an
armed ``server.verify`` chaos rule) is caught before it is cached,
persisted, or served.  The check is O(pins) — noise next to the
partition run that produced the body.

Flow-refinement evaluation practice (KaHyPar's network-flow refinement,
Gottesbüren & Hamann's flow-bipartitioning study) leans on exactly this
kind of cheap independent recomputation as the correctness backstop for
trusting a result trajectory; the service boundary enforces the same
invariant the test suites already rely on.

The recomputation runs over integer arrays: a
:class:`VerificationView` of the hypergraph (vertex ids, int32 pin rows,
weight arrays), which the daemon builds once per hypergraph and keeps in
its hypergraph table.  Both verifiers take either such a view or a
:class:`~repro.core.hypergraph.Hypergraph`, whose view they build
first.  The view is read off the hypergraph's own tables, never off the
engines' :class:`~repro.core.index.HypergraphIndex`, so the check shares
no code with what it checks.

All failures raise :class:`IntegrityError` (a ``ValueError``) with a
message naming the first violated invariant.  The daemon maps it to a
typed 500 (``error.type: "IntegrityError"``); ``bench --verify`` maps
it to an explicit failed entry.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, repeat
from typing import Any

import numpy as np

from repro.core.hypergraph import Hypergraph
from repro.core.partition import imbalance_fraction
from repro.io.json_io import _decode_label

__all__ = [
    "IntegrityError",
    "VerificationView",
    "verify_partition_body",
    "verify_place_body",
]


class IntegrityError(ValueError):
    """A result body failed independent re-verification."""


class VerificationView:
    """What verification reads of a hypergraph, over integer vertex ids.

    ``labels`` are the vertex labels in vertex order, so vertex id ``i``
    is ``labels[i]``.  Edge ``e``'s pins are the int32 ids
    ``pins[pin_starts[e]:pin_starts[e + 1]]``, edges in edge order;
    ``vertex_weights`` and ``edge_weights`` are float64 arrays in the
    same orders.  ``nbytes`` estimates its resident size: the arrays,
    the label tuple and each label object it holds.
    """

    __slots__ = ("labels", "pins", "pin_starts", "vertex_weights", "edge_weights", "nbytes")

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.labels = labels = tuple(hypergraph.vertices)
        ids = self.ids()
        edges = hypergraph.edges
        members = list(edges.values())
        self.pin_starts = np.zeros(len(members) + 1, np.int32)
        np.cumsum(
            np.fromiter(map(len, members), np.int32, len(members)), out=self.pin_starts[1:]
        )
        self.pins = np.fromiter(
            map(ids.__getitem__, chain.from_iterable(members)),
            np.int32,
            int(self.pin_starts[-1]),
        )
        self.vertex_weights = np.fromiter(
            map(hypergraph.vertex_weight, labels), np.float64, len(labels)
        )
        self.edge_weights = np.fromiter(
            map(hypergraph.edge_weight, edges), np.float64, len(edges)
        )
        self.nbytes = (
            sys.getsizeof(labels)
            + sum(map(sys.getsizeof, labels))
            + self.pins.nbytes
            + self.pin_starts.nbytes
            + self.vertex_weights.nbytes
            + self.edge_weights.nbytes
        )

    def ids(self) -> dict:
        """Each vertex label's id."""
        return dict(zip(self.labels, range(len(self.labels))))


def _lookup(ids: dict, labels: list) -> tuple[np.ndarray, list]:
    """The ids of the known ``labels``, and the unknown ones, each in order.

    An unhashable label raises ``TypeError``, as putting it in a set does.
    """
    found = np.fromiter(map(ids.get, labels, repeat(-1)), np.intp, len(labels))
    unknown = found < 0
    if not unknown.any():
        return found, []
    return found[~unknown], [labels[i] for i in np.flatnonzero(unknown)]


def _view(hypergraph: Hypergraph | VerificationView) -> VerificationView:
    if isinstance(hypergraph, VerificationView):
        return hypergraph
    return VerificationView(hypergraph)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IntegrityError(message)


def _check_identity(body: Any, digest, fingerprint, settings) -> None:
    _require(isinstance(body, dict), "result body must be a JSON object")
    if digest is not None:
        _require(
            body.get("digest") == digest,
            f"result digest {body.get('digest')!r} does not match the "
            f"request hypergraph digest {digest!r}",
        )
    if fingerprint is not None:
        _require(
            body.get("fingerprint") == fingerprint,
            f"result fingerprint {body.get('fingerprint')!r} does not match "
            f"the request settings fingerprint {fingerprint!r}",
        )
    if settings is not None:
        _require(
            body.get("settings") == settings,
            "result settings do not match the request settings",
        )


def _decode_side(body: dict, side: str) -> list:
    labels = body.get(side)
    _require(
        isinstance(labels, list),
        f"result body field {side!r} must be a list, got "
        f"{type(labels).__name__}",
    )
    return [_decode_label(label) for label in labels]


def _all_distinct(ids: np.ndarray, unknown: list, num_vertices: int) -> tuple[np.ndarray, bool]:
    """``(count of each id, whether every label is listed once)``."""
    counts = np.bincount(ids, minlength=num_vertices)
    return counts, counts.max(initial=0) <= 1 and len(set(unknown)) == len(unknown)


def verify_partition_body(
    hypergraph: Hypergraph | VerificationView,
    body: dict,
    *,
    digest: str | None = None,
    fingerprint: str | None = None,
    settings: dict | None = None,
) -> None:
    """Re-verify a partition result body against its source hypergraph.

    ``hypergraph`` is the hypergraph or its :class:`VerificationView`.
    Checks, in order:

    * identity — the embedded ``digest``/``fingerprint``/``settings``
      match the request's (each check skipped when its argument is
      ``None``), so a response can never answer for a different request;
    * assignment — ``left``/``right`` decode to disjoint vertex sets
      whose union is exactly the hypergraph's vertex set;
    * cut — ``cutsize`` and ``weighted_cutsize`` equal an independent
      recomputation from the assignment (an edge crosses when it has
      pins on both sides; the weight is an exact ``math.fsum``);
    * balance — ``imbalance_fraction`` equals the recomputed
      :func:`~repro.core.partition.imbalance_fraction` of the two
      sides' exact weights.

    Raises :class:`IntegrityError` on the first violation.
    """
    _check_identity(body, digest, fingerprint, settings)
    view = _view(hypergraph)
    n = len(view.labels)

    left = _decode_side(body, "left")
    right = _decode_side(body, "right")
    ids = view.ids()
    left_ids, left_unknown = _lookup(ids, left)
    right_ids, right_unknown = _lookup(ids, right)
    in_left, left_once = _all_distinct(left_ids, left_unknown, n)
    in_right, right_once = _all_distinct(right_ids, right_unknown, n)
    _require(left_once and right_once, "partition sides contain duplicate vertices")
    _require(
        not (in_left & in_right).any() and not set(left_unknown) & set(right_unknown),
        "partition sides are not disjoint",
    )
    # Distinct and disjoint: the sides together list len(left) + len(right) vertices.
    assigned = len(left) + len(right)
    _require(
        not left_unknown and not right_unknown and assigned == n,
        "partition sides do not cover the hypergraph's vertex set "
        f"({assigned} assigned vs {n} vertices)",
    )

    # One pass over the pins gives both cut figures.
    left_pins = np.add.reduceat(in_left[view.pins], view.pin_starts[:-1])
    crossing = (left_pins > 0) & (left_pins < np.diff(view.pin_starts))
    recomputed_cut = int(np.count_nonzero(crossing))
    _require(
        body.get("cutsize") == recomputed_cut,
        f"claimed cutsize {body.get('cutsize')!r} != recomputed "
        f"{recomputed_cut}",
    )
    recomputed_weighted = math.fsum(view.edge_weights[crossing].tolist())
    _require(
        body.get("weighted_cutsize") == recomputed_weighted,
        f"claimed weighted_cutsize {body.get('weighted_cutsize')!r} != "
        f"recomputed {recomputed_weighted}",
    )
    on_left = in_left.astype(bool)
    recomputed_imbalance = imbalance_fraction(
        math.fsum(view.vertex_weights[on_left].tolist()),
        math.fsum(view.vertex_weights[~on_left].tolist()),
    )
    _require(
        body.get("imbalance_fraction") == recomputed_imbalance,
        f"claimed imbalance_fraction {body.get('imbalance_fraction')!r} != "
        f"recomputed {recomputed_imbalance}",
    )


def verify_place_body(
    hypergraph: Hypergraph | VerificationView,
    body: dict,
    *,
    digest: str | None = None,
    fingerprint: str | None = None,
    settings: dict | None = None,
) -> None:
    """Re-verify a placement result body against its source hypergraph.

    ``hypergraph`` is the hypergraph or its :class:`VerificationView`.
    Placement has no single recomputable objective as cheap as a cut
    (HPWL depends on the grid geometry the placer chose), so the check
    is identity + structural: the embedded request identity matches,
    every hypergraph vertex is placed exactly once, every slot is
    inside the reported grid, and no slot holds two vertices.
    """
    _check_identity(body, digest, fingerprint, settings)
    view = _view(hypergraph)

    grid = body.get("grid")
    _require(
        isinstance(grid, dict)
        and isinstance(grid.get("rows"), int)
        and isinstance(grid.get("cols"), int),
        "result body field 'grid' must carry integer rows/cols",
    )
    positions: Any = body.get("positions")
    _require(
        isinstance(positions, list),
        "result body field 'positions' must be a list",
    )
    placed: list = []
    slots: set[tuple[int, int]] = set()
    for item in positions:
        _require(
            isinstance(item, list) and len(item) == 2,
            "each position must be a [label, [row, col]] pair",
        )
        label, slot = item
        _require(
            isinstance(slot, list)
            and len(slot) == 2
            and all(isinstance(c, int) for c in slot),
            "each position slot must be an integer [row, col] pair",
        )
        row, col = slot
        _require(
            0 <= row < grid["rows"] and 0 <= col < grid["cols"],
            f"slot [{row}, {col}] is outside the "
            f"{grid['rows']}x{grid['cols']} grid",
        )
        _require(
            (row, col) not in slots,
            f"slot [{row}, {col}] holds more than one vertex",
        )
        slots.add((row, col))
        placed.append(_decode_label(label))
    n = len(view.labels)
    placed_ids, unknown = _lookup(view.ids(), placed)
    _, once = _all_distinct(placed_ids, unknown, n)
    _require(once, "a vertex is placed more than once")
    _require(
        not unknown and len(placed) == n,
        "placed vertices do not cover the hypergraph's vertex set "
        f"({len(placed)} placed vs {n} vertices)",
    )
