"""Multilevel hypergraph bipartitioning (the post-1989 state of the art).

The paper's heuristic was eventually superseded by the multilevel
paradigm (hMETIS, KaHyPar): coarsen the hypergraph by contracting
strongly connected vertex pairs, partition the small coarse instance
well, then project the cut back level by level with FM refinement at
each step.  A credible open-source release of a partitioner ships one,
and it gives the benchmark harness a "how far from modern" yardstick for
Algorithm I.

Coarsening uses **heavy-edge matching**: each vertex is matched to the
unmatched neighbour with the largest connectivity rating
``Σ w(e) / (|e| − 1)`` over shared edges (the standard hypergraph
adaptation), with a weight cap so no contracted vertex can block balance
later.  Contraction merges duplicate nets (summing weights) and drops
single-pin nets.

The coarsest instance is partitioned with multi-start Algorithm I plus
an FM polish; each uncoarsening step projects the assignment and runs FM
with the requested balance tolerance.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass

from repro import obs
from repro.baselines.cutstate import LEFT, CutState
from repro.baselines.fiduccia_mattheyses import fiduccia_mattheyses
from repro.baselines.result import BaselineResult
from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults

Vertex = Hashable


def _rebalance_to_tolerance(
    h: Hypergraph, bipartition: Bipartition, tolerance: float
) -> Bipartition:
    """Force the weight imbalance under ``tolerance`` (cheapest moves first).

    FM's best-prefix rollback can legally keep a degenerate low-cut,
    lopsided assignment (e.g. a 4-vertex island split off a 2471-vertex
    netlist); every level therefore ends with this explicit repair: move
    the highest-gain (least cut damage) vertex off the heavy side until
    the balance constraint holds.
    """
    total = h.total_vertex_weight
    if total <= 0 or bipartition.weight_imbalance / total <= tolerance:
        return bipartition
    state = CutState(h, bipartition.left)
    vertex_id = state.index.id_of
    guard = 2 * h.num_vertices
    while (
        abs(state.side_weights[0] - state.side_weights[1]) / total > tolerance
        and guard > 0
    ):
        guard -= 1
        heavy = LEFT if state.side_weights[0] > state.side_weights[1] else 1 - LEFT
        movable = state.left if heavy == LEFT else state.right
        if len(movable) <= 1:
            break
        best = max(
            movable,
            key=lambda v: (state.gain(vertex_id(v)), -h.vertex_weight(v), repr(v)),
        )
        state.apply_move(vertex_id(best))
    return state.to_bipartition()


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the coarse hypergraph and the fine->coarse map."""

    hypergraph: Hypergraph
    vertex_map: dict[Vertex, Vertex]


def _rate_pairs(h: Hypergraph) -> dict[Vertex, list[tuple[float, Vertex]]]:
    """Per-vertex neighbour ratings: Σ w(e)/(|e|-1) over shared edges."""
    ratings: dict[Vertex, dict[Vertex, float]] = {v: {} for v in h.vertices}
    for name in h.edge_names:
        members = sorted(h.edge_members(name), key=repr)
        k = len(members)
        if k < 2:
            continue
        score = h.edge_weight(name) / (k - 1)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                ratings[u][v] = ratings[u].get(v, 0.0) + score
                ratings[v][u] = ratings[v].get(u, 0.0) + score
    return {
        v: sorted(((s, u) for u, s in nbrs.items()), key=lambda t: (-t[0], repr(t[1])))
        for v, nbrs in ratings.items()
    }


def coarsen_once(
    h: Hypergraph,
    rng: random.Random,
    max_vertex_weight: float,
) -> CoarseLevel:
    """One heavy-edge-matching contraction pass.

    Vertices are visited in random order; each unmatched vertex grabs its
    best-rated unmatched neighbour whose combined weight stays under
    ``max_vertex_weight``.  Unmatched vertices survive as singletons.
    Coarse vertices are labelled ``0..k-1`` (ints).
    """
    ratings = _rate_pairs(h)
    order = h.vertices
    rng.shuffle(order)

    partner: dict[Vertex, Vertex] = {}
    for v in order:
        if v in partner:
            continue
        for score, u in ratings[v]:
            if u in partner:
                continue
            if h.vertex_weight(v) + h.vertex_weight(u) > max_vertex_weight:
                continue
            partner[v] = u
            partner[u] = v
            break

    vertex_map: dict[Vertex, Vertex] = {}
    coarse = Hypergraph()
    next_id = 0
    for v in h.vertices:
        if v in vertex_map:
            continue
        mate = partner.get(v)
        weight = h.vertex_weight(v)
        members = [v]
        if mate is not None and mate not in vertex_map:
            weight += h.vertex_weight(mate)
            members.append(mate)
        coarse.add_vertex(next_id, weight)
        for m in members:
            vertex_map[m] = next_id
        next_id += 1

    merged: dict[frozenset, float] = {}
    for name in h.edge_names:
        pins = frozenset(vertex_map[v] for v in h.edge_members(name))
        if len(pins) < 2:
            continue  # net swallowed by a contraction
        merged[pins] = merged.get(pins, 0.0) + h.edge_weight(name)
    for i, (pins, weight) in enumerate(
        sorted(merged.items(), key=lambda kv: repr(sorted(kv[0])))
    ):
        coarse.add_edge(pins, name=i, weight=weight)

    return CoarseLevel(hypergraph=coarse, vertex_map=vertex_map)


def multilevel_bipartition(
    hypergraph: Hypergraph,
    coarsest_size: int = 40,
    max_levels: int = 20,
    balance_tolerance: float = 0.1,
    initial_starts: int = 25,
    refine_passes: int = 8,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Multilevel bipartition: coarsen, cut the coarsest level, refine up.

    Parameters
    ----------
    hypergraph:
        Netlist to cut; needs at least two vertices.
    coarsest_size:
        Stop coarsening at (or below) this many vertices.
    max_levels:
        Safety cap on coarsening rounds (also stops when a round shrinks
        the instance by < 10%, the usual stall guard).
    balance_tolerance:
        Weight-imbalance fraction allowed during every refinement.
    initial_starts:
        Multi-start count for the coarsest-level Algorithm I run.
    refine_passes:
        FM passes per uncoarsening step.
    seed:
        Integer seed or :class:`random.Random`.
    deadline:
        Wall-clock budget (``Deadline`` or seconds), checked between
        coarsening rounds and between uncoarsening levels.  Once expired,
        remaining levels are projected and rebalanced but *not* FM-refined
        (projection is cheap and required for a valid answer; refinement
        is the optional polish), and the result carries ``degraded=True``.
    """
    if hypergraph.num_vertices < 2:
        raise ValueError("need at least two vertices to bipartition")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)
    degrade_reason: str | None = None

    max_vertex_weight = max(
        1.5 * hypergraph.total_vertex_weight / max(coarsest_size, 2),
        max((hypergraph.vertex_weight(v) for v in hypergraph.vertices), default=1.0),
    )

    with obs.span("baseline.multilevel"):
        levels: list[CoarseLevel] = []
        current = hypergraph
        with obs.span("baseline.multilevel.coarsen"):
            for _ in range(max_levels):
                if current.num_vertices <= coarsest_size:
                    break
                if levels and deadline is not None and deadline.expired():
                    degrade_reason = (
                        f"deadline expired during coarsening after {len(levels)} levels"
                    )
                    obs.count("baseline.multilevel.deadline_stops")
                    break
                faults.inject("baseline.multilevel.coarsen")
                level = coarsen_once(current, rng, max_vertex_weight)
                if level.hypergraph.num_vertices > 0.9 * current.num_vertices:
                    break  # matching stalled; further rounds will not help
                levels.append(level)
                current = level.hypergraph
        obs.count("baseline.multilevel.levels", len(levels))

        # Initial partition on the coarsest hypergraph.
        evaluations = 0
        if current.num_vertices < 2:
            raise ValueError("coarsening collapsed the hypergraph; lower coarsest_size")
        with obs.span("baseline.multilevel.initial"):
            coarse_result = algorithm1(
                current,
                num_starts=initial_starts,
                seed=rng,
                balance_tolerance=balance_tolerance,
                deadline=deadline,
            )
            polished = fiduccia_mattheyses(
                current,
                initial=_rebalance_to_tolerance(
                    current, coarse_result.bipartition, balance_tolerance
                ),
                max_passes=refine_passes,
                balance_tolerance=balance_tolerance,
                seed=rng,
                deadline=deadline,
            )
        evaluations += polished.evaluations
        assignment: Bipartition = _rebalance_to_tolerance(
            current, polished.bipartition, balance_tolerance
        )
        history = [assignment.cutsize]

        # Uncoarsen with per-level FM refinement.  Level i coarsened "finer_i"
        # into levels[i].hypergraph, where finer_0 is the original input.
        # Past the deadline, projection and rebalance still run (a valid
        # full-size bipartition is non-negotiable) but FM polish is skipped.
        with obs.span("baseline.multilevel.uncoarsen"):
            for index in range(len(levels) - 1, -1, -1):
                level = levels[index]
                finer = hypergraph if index == 0 else levels[index - 1].hypergraph
                faults.inject("baseline.multilevel.uncoarsen")
                left = {
                    v for v in finer.vertices if level.vertex_map[v] in assignment.left
                }
                right = set(finer.vertices) - left
                projected = Bipartition(finer, left, right)
                expired = deadline is not None and deadline.expired()
                if expired:
                    if degrade_reason is None:
                        degrade_reason = (
                            "deadline expired during uncoarsening at level "
                            f"{index + 1}/{len(levels)}; remaining levels "
                            "projected without FM refinement"
                        )
                        obs.count("baseline.multilevel.deadline_stops")
                    assignment = _rebalance_to_tolerance(
                        finer, projected, balance_tolerance
                    )
                else:
                    refined = fiduccia_mattheyses(
                        finer,
                        initial=projected,
                        max_passes=refine_passes,
                        balance_tolerance=balance_tolerance,
                        seed=rng,
                        deadline=deadline,
                    )
                    evaluations += refined.evaluations
                    assignment = _rebalance_to_tolerance(
                        finer, refined.bipartition, balance_tolerance
                    )
                history.append(assignment.cutsize)

    obs.count("baseline.multilevel.runs")
    obs.count("baseline.multilevel.evaluations", evaluations)
    if coarse_result.degraded and degrade_reason is None:
        degrade_reason = f"coarsest-level Algorithm I degraded: {coarse_result.degrade_reason}"
    return BaselineResult(
        bipartition=assignment,
        iterations=len(levels) + 1,
        evaluations=evaluations,
        history=tuple(history),
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason,
    )
