"""The label-space result verifier, kept as a test reference.

Until the verify gate ran over integer arrays
(:class:`repro.metrics.verify.VerificationView`), it walked the
hypergraph in label space: python sets of the returned labels,
:func:`repro.metrics.cut.crossing_edges` over every edge's members, and
:func:`repro.metrics.balance.weight_imbalance_fraction` over the label
set.  The code below is that code verbatim, except that it raises the
one :class:`~repro.metrics.verify.IntegrityError` class.

``tests/test_verify_differential.py`` holds ``src``'s verifiers to it:
the same exception type and the same message on every generated body.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.hypergraph import Hypergraph
from repro.io.json_io import _decode_label
from repro.metrics.balance import weight_imbalance_fraction
from repro.metrics.cut import crossing_edges
from repro.metrics.verify import IntegrityError

__all__ = ["verify_partition_body", "verify_place_body"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IntegrityError(message)


def _decode_side(body: dict, side: str) -> list:
    labels = body.get(side)
    _require(
        isinstance(labels, list),
        f"result body field {side!r} must be a list, got "
        f"{type(labels).__name__}",
    )
    return [_decode_label(label) for label in labels]


def verify_partition_body(
    hypergraph: Hypergraph,
    body: dict,
    *,
    digest: str | None = None,
    fingerprint: str | None = None,
    settings: dict | None = None,
) -> None:
    """Re-verify a partition result body against its source hypergraph.

    Checks, in order:

    * identity — the embedded ``digest``/``fingerprint``/``settings``
      match the request's (each check skipped when its argument is
      ``None``), so a response can never answer for a different request;
    * assignment — ``left``/``right`` decode to disjoint vertex sets
      whose union is exactly the hypergraph's vertex set;
    * cut — ``cutsize`` and ``weighted_cutsize`` equal an independent
      recomputation (:mod:`repro.metrics.cut`) from the assignment;
    * balance — ``imbalance_fraction`` equals the recomputed
      :func:`~repro.metrics.balance.weight_imbalance_fraction`.

    Raises :class:`IntegrityError` on the first violation.
    """
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

    left = _decode_side(body, "left")
    right = _decode_side(body, "right")
    left_set = set(left)
    right_set = set(right)
    _require(
        len(left_set) == len(left) and len(right_set) == len(right),
        "partition sides contain duplicate vertices",
    )
    _require(
        not (left_set & right_set),
        "partition sides are not disjoint",
    )
    vertices = set(hypergraph.vertices)
    _require(
        left_set | right_set == vertices,
        "partition sides do not cover the hypergraph's vertex set "
        f"({len(left_set | right_set)} assigned vs {len(vertices)} vertices)",
    )

    # One walk gives both cut figures, as repro.metrics.cut derives them.
    crossing = crossing_edges(hypergraph, left_set)
    recomputed_cut = len(crossing)
    _require(
        body.get("cutsize") == recomputed_cut,
        f"claimed cutsize {body.get('cutsize')!r} != recomputed "
        f"{recomputed_cut}",
    )
    recomputed_weighted = math.fsum(hypergraph.edge_weight(name) for name in crossing)
    _require(
        body.get("weighted_cutsize") == recomputed_weighted,
        f"claimed weighted_cutsize {body.get('weighted_cutsize')!r} != "
        f"recomputed {recomputed_weighted}",
    )
    recomputed_imbalance = weight_imbalance_fraction(hypergraph, left_set)
    _require(
        body.get("imbalance_fraction") == recomputed_imbalance,
        f"claimed imbalance_fraction {body.get('imbalance_fraction')!r} != "
        f"recomputed {recomputed_imbalance}",
    )


def verify_place_body(
    hypergraph: Hypergraph,
    body: dict,
    *,
    digest: str | None = None,
    fingerprint: str | None = None,
    settings: dict | None = None,
) -> None:
    """Re-verify a placement result body against its source hypergraph.

    Placement has no single recomputable objective as cheap as a cut
    (HPWL depends on the grid geometry the placer chose), so the check
    is identity + structural: the embedded request identity matches,
    every hypergraph vertex is placed exactly once, every slot is
    inside the reported grid, and no slot holds two vertices.
    """
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
    placed_set = set(placed)
    _require(
        len(placed_set) == len(placed),
        "a vertex is placed more than once",
    )
    vertices = set(hypergraph.vertices)
    _require(
        placed_set == vertices,
        "placed vertices do not cover the hypergraph's vertex set "
        f"({len(placed_set)} placed vs {len(vertices)} vertices)",
    )
