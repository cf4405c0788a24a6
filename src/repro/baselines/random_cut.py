"""Random balanced cuts — the constant-factor strawman of Section 1.

"In an easy problem instance, even a random cut will differ from the
optimum cut by at most a constant factor" — so any heuristic worth its
salt must beat multi-start random.  The difficult-input benches use this
as the floor.

Each start shuffles the vertex ids (the draws
:func:`~repro.baselines.cutstate.random_balanced_sides` makes for the
labels) and scores its side array over the one
:class:`~repro.core.index.HypergraphIndex` with
:meth:`~repro.core.index.HypergraphIndex.crossing`, which counts each
edge row's left-side pins with ``np.bincount``.  Only the best start's
sides become labels.
"""

from __future__ import annotations

import random

import numpy as np

from repro import obs
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.index import HypergraphIndex
from repro.runtime import Deadline, faults


def random_cut(
    hypergraph: Hypergraph,
    num_starts: int = 1,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Best of ``num_starts`` uniformly random bisections.

    Parameters
    ----------
    hypergraph:
        Netlist to cut; needs at least two vertices.
    num_starts:
        Independent random bisections to draw.
    seed:
        Integer seed or a :class:`random.Random`.
    deadline:
        Wall-clock budget (``Deadline`` or seconds), checked between
        starts; on expiry the best cut so far is returned with
        ``degraded=True``.
    """
    if hypergraph.num_vertices < 2:
        raise ValueError("need at least two vertices to bipartition")
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)
    degrade_reason: str | None = None

    index = HypergraphIndex(hypergraph)
    n = index.num_vertices
    best_side: np.ndarray | None = None
    best_cut = 0
    history: list[int] = []
    evaluations = 0
    starts_done = 0
    with obs.span("baseline.random"):
        for _ in range(num_starts):
            if starts_done > 0 and deadline is not None and deadline.expired():
                degrade_reason = (
                    f"deadline expired after {starts_done}/{num_starts} starts"
                )
                obs.count("baseline.random.deadline_stops")
                break
            faults.inject("baseline.random.start")
            ids = list(range(n))
            rng.shuffle(ids)
            side = np.ones(n, dtype=np.int8)
            side[ids[: n // 2]] = 0
            cut = int(np.count_nonzero(index.crossing(side, hypergraph)))
            evaluations += hypergraph.num_edges
            starts_done += 1
            if best_side is None or cut < best_cut:
                best_side, best_cut = side, cut
            history.append(best_cut)

    assert best_side is not None
    obs.count("baseline.random.runs")
    obs.count("baseline.random.starts", starts_done)
    obs.count("baseline.random.evaluations", evaluations)
    return BaselineResult(
        bipartition=index.bipartition(hypergraph, best_side),
        iterations=starts_done,
        evaluations=evaluations,
        history=tuple(history),
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason,
    )
