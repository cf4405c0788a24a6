"""Algorithm I — the end-to-end fast hypergraph bipartitioner.

Pipeline (paper Section 2.3, with the Section 3/5 refinements):

1. *Filter*: heuristically ignore hyperedges of size ≥ threshold (they
   almost surely cross the optimum cut anyway; Table 1).
2. *Dualize*: build the intersection graph ``G`` of the filtered
   hypergraph.
3. *Cut ``G``* (per start): random longest BFS path gives seeds ``(u, v)``;
   double BFS from the seeds partitions the G-nodes; boundary set ``B``.
4. *Project*: non-boundary G-nodes force their pins to a side — a partial
   bipartition of ``H`` (consistent by construction).
5. *Complete*: run Complete-Cut (or its weighted engineer's-rule form) on
   the bipartite boundary graph ``G'``; winners commit their pins,
   losers cross.
6. *Balance*: vertices still free (pins only of losers / filtered /
   isolated modules) are assigned greedily to the lighter side.
7. *Multi-start*: repeat 3–6 for ``num_starts`` random longest paths and
   keep the best final cut (the paper's test runs used 50).

Total complexity ``O(num_starts * n^2)`` with ``n`` hyperedges, matching
the paper's bound; the completion step is ``O(n log n)``.

Steps 1–2 and the component check do not depend on the seed.  On a
frozen hypergraph (:meth:`Hypergraph.freeze`) the first call keeps them
per ``edge_size_threshold`` and later calls reuse them, so every run on
it (``flow``'s Algorithm I half too) builds the dual once.

Step 7 is one loop.  A start is one call of the run's start function
(steps 3–6 and the ranking key), and one fold keeps the best start by
``(rank, start_index)``, whether the start was replayed from a journal,
run in-process or run by a pool worker.  Starts are independent, so
``parallel=k`` fans them across ``k`` worker processes; the pool's
worker is the run's start function bound with :func:`functools.partial`,
never a module global, so two runs in one process cannot see each
other's state.  Child seeds are drawn up front from the caller's rng, so
a parallel run is reproducible for a fixed seed regardless of worker
count (though its rng stream differs from the sequential one;
``parallel=None`` preserves the exact sequential behaviour).
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from repro import obs
from repro.runtime import (
    Deadline,
    RunJournal,
    SupervisedPool,
    SupervisionReport,
    advance_seed,
    faults,
)
from repro.core.boundary import BoundaryGraph, boundary_graph
from repro.core.complete_cut import (
    CompletionResult,
    complete_cut,
    complete_cut_weighted,
)
from repro.core.digest import hypergraph_digest
from repro.core.dual_cut import (
    GraphCut,
    PartialBipartition,
    double_bfs_cut,
    partial_bipartition,
    random_longest_bfs_path,
)
from repro.core.filtering import DEFAULT_EDGE_SIZE_THRESHOLD, filter_large_edges
from repro.core.csr import first_positions, gather_rows
from repro.core.hypergraph import Hypergraph
from repro.core.index import HypergraphIndex
from repro.core.intersection import IntersectionGraph, intersection_graph
from repro.core.partition import Bipartition

EdgeName = Hashable

#: Phase keys reported in ``Algorithm1Result.timings`` (seconds each).
TIMING_PHASES = ("filter", "dualize", "cut", "complete", "balance")


class Algorithm1Error(ValueError):
    """Raised on inputs Algorithm I cannot bipartition (e.g. < 2 vertices)."""


@dataclass(frozen=True)
class StartRecord:
    """Diagnostics for one multi-start attempt."""

    seed_u: EdgeName
    seed_v: EdgeName | None
    bfs_depth: int
    boundary_size: int
    num_losers: int
    cutsize: int
    weight_imbalance: float


@dataclass(frozen=True)
class Algorithm1Result:
    """Best bipartition found plus per-start diagnostics.

    Attributes
    ----------
    bipartition:
        The winning cut, evaluated against the *original* (unfiltered)
        hypergraph.
    ignored_edges:
        Hyperedges excluded from the intersection graph by the size
        filter (they still count in ``bipartition.cutsize``).
    starts:
        One :class:`StartRecord` per multi-start attempt, in order.
    intersection:
        The dual graph used (of the filtered hypergraph), for analysis.
    timings:
        Wall-clock seconds per pipeline phase, keyed by
        :data:`TIMING_PHASES`.  ``cut`` / ``complete`` / ``balance`` are
        summed over all starts (CPU seconds across workers when
        ``parallel`` is set, so they can exceed the elapsed time).
        ``filter`` and ``dualize`` read 0 when a frozen hypergraph's
        kept preparation is reused.
    counters:
        Work counters: ``num_starts``, ``ignored_edges``, ``dual_nodes``,
        ``dual_edges``, ``parallel_workers``.  ``num_starts`` is the
        number of starts that actually *completed* — under a deadline or
        worker faults it can be smaller than the requested count, and
        ``len(starts)`` always agrees with it.
    degraded:
        True when the run hit its deadline or recovered from worker
        faults and therefore explored fewer/other starts than requested;
        the returned cut is still the best over everything that finished.
    degrade_reason:
        Human-readable explanation when ``degraded`` (deadline expiry,
        crash/hang/retry summary from the supervisor), else ``None``.
    """

    bipartition: Bipartition
    ignored_edges: frozenset[EdgeName]
    starts: tuple[StartRecord, ...]
    intersection: IntersectionGraph = field(repr=False)
    timings: dict = field(default_factory=dict, repr=False, compare=False)
    counters: dict = field(default_factory=dict, repr=False, compare=False)
    degraded: bool = field(default=False, compare=False)
    degrade_reason: str | None = field(default=None, compare=False)

    @property
    def cutsize(self) -> int:
        return self.bipartition.cutsize

    @property
    def best_start(self) -> StartRecord:
        return min(self.starts, key=lambda s: (s.cutsize, s.weight_imbalance))


@dataclass(frozen=True)
class SingleRunTrace:
    """All intermediate artefacts of one Algorithm I start (for tests/teaching).

    ``bfs_depth`` is the depth of the random longest BFS path that chose
    the seeds — recorded here so multi-start diagnostics need not re-run
    the BFS.  ``timings`` holds per-phase seconds for this start
    (``cut`` / ``complete`` / ``balance``).

    ``sides`` is the final int8 vertex-side array over the dual's
    :class:`~repro.core.index.HypergraphIndex`, and ``cutsize``,
    ``weighted_cutsize`` and ``weight_imbalance`` score it against the
    original hypergraph from pin counts.  ``bipartition`` turns it into
    labels on first read: a multi-start run reads it for the winner only.
    """

    cut: GraphCut
    partial: PartialBipartition
    boundary: BoundaryGraph
    completion: CompletionResult
    sides: np.ndarray = field(repr=False, compare=False)
    cutsize: int
    weighted_cutsize: float
    weight_imbalance: float
    index: HypergraphIndex = field(repr=False, compare=False)
    original: Hypergraph = field(repr=False, compare=False)
    bfs_depth: int = 0
    timings: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def bipartition(self) -> Bipartition:
        return self.index.bipartition(self.original, self.sides)


@dataclass(frozen=True)
class _Preparation:
    """Algorithm I's seed-independent steps for one hypergraph and threshold.

    The ignored edge names (step 1), the dual of the filtered hypergraph
    with its row lists and repr ranks (step 2), and the dual's components
    in :meth:`Graph.component_slots` order (empty for an edgeless dual).
    """

    ignored: frozenset
    intersection: IntersectionGraph
    components: list


def _prepare(
    hypergraph: Hypergraph, edge_size_threshold: int | None, timer: obs.PhaseTimer
) -> _Preparation:
    """Run steps 1–2 and the component check, timing the first two."""
    with timer.phase("filter"):
        if edge_size_threshold is None:
            working, ignored = hypergraph, frozenset()
        else:
            working, ignored = filter_large_edges(hypergraph, edge_size_threshold)
            if working.num_edges == 0 and hypergraph.num_edges > 0:
                # Filtering removed everything (tiny dense instances): disable it.
                working, ignored = hypergraph, frozenset()
        if hypergraph.frozen:
            working.freeze()  # it backs a kept dual

    with timer.phase("dualize"):
        intersection = intersection_graph(working)

    components = intersection.graph.component_slots() if intersection.num_nodes else []
    return _Preparation(ignored, intersection, components)


def kept_duals(hypergraph: Hypergraph) -> list[IntersectionGraph]:
    """The duals a frozen ``hypergraph`` keeps for Algorithm I, one per threshold run."""
    return [
        prepared.intersection
        for prepared in hypergraph.kept().values()
        if isinstance(prepared, _Preparation)
    ]


def _balance_free_vertices(index: HypergraphIndex, sides: np.ndarray, rng: random.Random) -> None:
    """Greedily assign unplaced vertices to the lighter side (in place).

    Heaviest-first (LPT rule) keeps the final weight imbalance at most the
    weight of one module.  Ties in side weight break randomly so that
    multi-start explores different completions.
    """
    free = index.lpt_order[sides[index.lpt_order] < 0]
    weights = index.weights
    wl = math.fsum(weights[sides == 0].tolist())
    wr = math.fsum(weights[sides == 1].tolist())
    placed = []
    for w in weights[free].tolist():
        if wl < wr or (wl == wr and rng.random() < 0.5):
            placed.append(0)
            wl += w
        else:
            placed.append(1)
            wr += w
    sides[free] = placed


def _ensure_nonempty_sides(index: HypergraphIndex, sides: np.ndarray) -> None:
    """Move the lightest vertex over if a side came out empty (in place).

    With one side empty the other holds every vertex, so the lightest
    one by ``(weight, repr)`` is the per-run ``index.lightest``.
    """
    if index.num_vertices < 2:
        return
    for side in (0, 1):
        if not (sides == side).any():
            sides[index.lightest] = side


def _commit_winner_pins(
    intersection: IntersectionGraph, completion: CompletionResult, sides: np.ndarray
) -> None:
    """Commit winner pins to their sides in completion order (in place).

    A pin claimed by winners on *both* sides (impossible for a true
    intersection dual, where opposing winners sharing a pin would be
    ``G'``-adjacent and one forced to lose, but reachable through crafted
    or degenerate boundary graphs) goes to whichever winner Complete-Cut
    selected first, and an already placed pin is never moved.  Resolving
    by completion order is deterministic and side-symmetric; committing
    all left winners before all right winners would silently privilege
    the left side.
    """
    winners, winner_sides = completion.winner_slots(intersection.graph)
    index = intersection.index
    counts, pins = gather_rows(index.pin_ptr, index.pins, winners)
    pin_sides = np.repeat(winner_sides, counts)
    open_ = sides[pins] < 0
    pins, pin_sides = pins[open_], pin_sides[open_]
    # First claim wins: each pin takes the side of its first position.
    first = first_positions(pins)
    sides[pins[first]] = pin_sides[first]


def _score(
    index: HypergraphIndex, original: Hypergraph, sides: np.ndarray
) -> tuple[int, float, float]:
    """``(cutsize, weighted_cutsize, weight_imbalance)`` of a full side array.

    Equal to the matching :class:`Bipartition` measures: an edge crosses
    when it has some but not all pins on the left, and both weight sums
    are exact (``math.fsum``), so their order cannot matter.
    """
    crossing = index.crossing(sides, original)
    edge_weights = index.cut_table(original)[3]
    weights = index.weights
    imbalance = abs(
        math.fsum(weights[sides == 0].tolist()) - math.fsum(weights[sides == 1].tolist())
    )
    return (
        int(np.count_nonzero(crossing)),
        math.fsum(edge_weights[crossing].tolist()),
        imbalance,
    )


def run_single_start(
    intersection: IntersectionGraph,
    original: Hypergraph,
    rng: random.Random,
    start_node: EdgeName | None = None,
    variant: str = "min_degree",
    weighted_balance: bool = False,
    double_sweep: bool = False,
    bfs_mode: str = "balanced",
) -> SingleRunTrace:
    """One complete pass of steps 3–6 from the given (or random) start node.

    Exposed separately so the paper's worked example (Figure 4) and the
    ablation benchmarks can pin the seeds and inspect every intermediate.
    ``original`` is the hypergraph the intersection was built from, or
    the unfiltered one it was filtered from (same vertices).  Every step
    runs on integer arrays over G's slots and the hypergraph's vertex
    ids; the label objects of the trace are built only when read.
    """
    g = intersection.graph
    index = intersection.index
    timer = obs.PhaseTimer("algorithm1")
    with timer.phase("cut"):
        u, v, depth = random_longest_bfs_path(
            g, rng=rng, start=start_node, double_sweep=double_sweep
        )

        if u == v:
            # Degenerate single-node BFS component: depth 0 means the seed
            # has no neighbours at all, so no boundary can arise — fall back
            # to an arbitrary one-vs-rest graph cut with empty boundary sets.
            assert g.degree(u) == 0, "u == v fallback requires an isolated seed"
            side = np.ones(g.num_nodes, dtype=np.int8)
            side[g.index_of(u)] = 0
            cut = GraphCut.from_sides(g, side, u, u)
        else:
            cut = double_bfs_cut(g, u, v, rng=rng, mode=bfs_mode)

        partial = partial_bipartition(intersection, cut)
        bg = boundary_graph(g, cut)

    sides = partial.sides.copy()
    with timer.phase("complete"):
        if weighted_balance:
            weights = index.weights
            completion = complete_cut_weighted(
                bg,
                intersection.hypergraph,
                initial_left_weight=math.fsum(weights[sides == 0].tolist()),
                initial_right_weight=math.fsum(weights[sides == 1].tolist()),
                assigned=partial,
                variant=variant,
                rng=rng,
            )
        else:
            completion = complete_cut(bg, variant=variant, rng=rng)

        _commit_winner_pins(intersection, completion, sides)

    with timer.phase("balance"):
        _balance_free_vertices(index, sides, rng)
        _ensure_nonempty_sides(index, sides)
        cutsize, weighted_cutsize, weight_imbalance = _score(index, original, sides)

    return SingleRunTrace(
        cut=cut,
        partial=partial,
        boundary=bg,
        completion=completion,
        sides=sides,
        cutsize=cutsize,
        weighted_cutsize=weighted_cutsize,
        weight_imbalance=weight_imbalance,
        index=index,
        original=original,
        bfs_depth=depth,
        timings=timer.timings,
    )


def _pack_components(
    intersection: IntersectionGraph,
    components: list[np.ndarray],
    rng: random.Random,
) -> np.ndarray:
    """Zero-cut side array of a disconnected dual graph by block packing.

    Each G-component (an array of G-slots, i.e. edge rows) covers a
    disjoint module block; blocks are distributed heaviest-first onto the
    lighter side (LPT), then any modules in no working edge are balanced
    individually.  Blocks of equal weight are ordered by the ``repr`` of
    their sorted labels, which is built for those blocks only.
    """
    index = intersection.index
    component_of = np.empty(index.num_edges, dtype=np.int64)
    component_of[np.concatenate(components)] = np.repeat(
        np.arange(len(components)), [len(rows) for rows in components]
    )
    # Edges of different components share no module: one block per module.
    block_of = np.full(index.num_vertices, -1, dtype=np.int64)
    block_of[index.pins] = component_of[index.pin_edge]
    members = np.argsort(block_of, kind="stable")
    bounds = np.searchsorted(block_of[members], np.arange(len(components) + 1)).tolist()
    member_weights = index.weights[members].tolist()
    weights = [math.fsum(member_weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    tied = {w for w, count in Counter(weights).items() if count > 1}
    vertices = index.vertices

    def key(k: int) -> tuple:
        if weights[k] not in tied:
            return (-weights[k], "")
        block = members[bounds[k] : bounds[k + 1]].tolist()
        return (-weights[k], repr(sorted((vertices[i] for i in block), key=repr)))

    side_of = np.empty(len(components), dtype=np.int8)
    wl = wr = 0.0
    for k in sorted(range(len(components)), key=key):
        if wl <= wr:
            side_of[k] = 0
            wl += weights[k]
        else:
            side_of[k] = 1
            wr += weights[k]
    sides = np.full(index.num_vertices, -1, dtype=np.int8)
    placed = members[bounds[0] :]
    sides[placed] = side_of[block_of[placed]]

    _balance_free_vertices(index, sides, rng)
    _ensure_nonempty_sides(index, sides)
    return sides


def _start_record(trace: SingleRunTrace) -> StartRecord:
    return StartRecord(
        seed_u=trace.cut.seed_u,
        seed_v=trace.cut.seed_v,
        bfs_depth=trace.bfs_depth,
        boundary_size=trace.cut.boundary_size,
        num_losers=trace.completion.num_losers,
        cutsize=trace.cutsize,
        weight_imbalance=trace.weight_imbalance,
    )


def _rank_key(
    bp: Bipartition | SingleRunTrace,
    objective: str,
    balance_tolerance: float | None,
    total_weight: float,
) -> tuple:
    """Multi-start ranking key: smaller is better (shared by all paths)."""
    score = bp.cutsize if objective == "edges" else bp.weighted_cutsize
    if balance_tolerance is None:
        return (score, bp.weight_imbalance)
    infeasible = bp.weight_imbalance / total_weight > balance_tolerance
    return (infeasible, score, bp.weight_imbalance)


# ----------------------------------------------------------------------
# Multi-start journaling (crash-durable checkpoint/resume; repro.runtime)
# ----------------------------------------------------------------------


# A resumed run must be partitioning the *same* hypergraph the journal
# was written for — replaying start records against a different instance
# would silently return a cut of the wrong netlist.  The content hash
# that enforces this is shared with the service result cache:
# :func:`repro.core.digest.hypergraph_digest`.
_hypergraph_digest = hypergraph_digest


def _start_value(
    record: StartRecord, rank: tuple, index: HypergraphIndex, sides: np.ndarray, child_seed: int
) -> dict:
    """JSON-ready journal value for one completed start."""
    return {
        "record": {
            "seed_u": record.seed_u,
            "seed_v": record.seed_v,
            "bfs_depth": record.bfs_depth,
            "boundary_size": record.boundary_size,
            "num_losers": record.num_losers,
            "cutsize": record.cutsize,
            "weight_imbalance": record.weight_imbalance,
        },
        "rank": list(rank),
        "left": sorted(index.labels_of(sides, 0), key=repr),
        "right": sorted(index.labels_of(sides, 1), key=repr),
        "seed": child_seed,
    }


def _load_start_value(value, index: HypergraphIndex) -> tuple:
    """Inverse of :func:`_start_value`: ``(record, rank, sides, timings)``.

    A replayed start contributes no timings.  Raises on unrecognizable
    entries.
    """
    try:
        record = StartRecord(**value["record"])
        rank = tuple(value["rank"])
        sides = index.sides_of(frozenset(value["left"]), frozenset(value["right"]))
        return record, rank, sides, {}
    except (KeyError, TypeError, ValueError) as exc:
        raise Algorithm1Error(f"journal start entry is malformed: {exc}") from exc


# ----------------------------------------------------------------------
# Supervised multi-start workers (repro.runtime)
# ----------------------------------------------------------------------


def _pooled_start(payload: tuple[int, int], *, start, record_obs: bool) -> tuple:
    """Supervised worker: one ``(start_index, child_seed)`` task of a run.

    ``start`` is the run's own start function, bound to its pool with
    :func:`functools.partial`: a forked worker inherits it with the run's
    dual, and two runs in one process never share it.  The worker records
    into a fresh scoped registry so the parent can merge its snapshot
    without double-counting whatever the fork inherited (``None`` when
    recording is off).  ``parallel.start`` is a fault-injection site: the
    chaos suite kills/hangs workers here to exercise the supervisor.
    """
    _index, child_seed = payload
    faults.inject("parallel.start")
    if not record_obs:
        return (*start(random.Random(child_seed)), None)
    with obs.scoped() as reg:
        out = start(random.Random(child_seed))
        snapshot = reg.snapshot()
    return (*out, snapshot)


def _reseed_start(payload: tuple[int, int], attempt: int) -> tuple[int, int]:
    """Deterministic retry seed-advance (start index is preserved)."""
    index, child_seed = payload
    return index, advance_seed(child_seed, attempt)


def algorithm1(
    hypergraph: Hypergraph,
    num_starts: int = 1,
    seed: int | random.Random | None = None,
    edge_size_threshold: int | None = DEFAULT_EDGE_SIZE_THRESHOLD,
    variant: str = "min_degree",
    weighted_balance: bool = False,
    double_sweep: bool = False,
    balance_tolerance: float | None = None,
    bfs_mode: str = "balanced",
    objective: str = "edges",
    parallel: int | None = None,
    deadline: Deadline | float | None = None,
    task_timeout: float | None = None,
    max_retries: int = 2,
    journal_path: str | Path | None = None,
    resume_path: str | Path | None = None,
) -> Algorithm1Result:
    """Bipartition ``hypergraph`` with Algorithm I.

    Parameters
    ----------
    hypergraph:
        The netlist to cut; must have at least two vertices.
    num_starts:
        Number of random longest BFS paths to try; best cut wins (the
        paper's experiments used 50).
    seed:
        Integer seed or a :class:`random.Random` for reproducibility.
    edge_size_threshold:
        Ignore hyperedges of at least this many pins when building the
        intersection graph (``None`` disables filtering; otherwise at
        least 2).  Default 10, per the paper's analysis.
    variant:
        Complete-Cut winner-selection variant (see
        :data:`repro.core.complete_cut.VARIANTS`).
    weighted_balance:
        Use the engineer's rule so vertex-weight equipartition is pursued
        during completion (slightly higher cutsizes, much better balance —
        exactly the paper's observed trade-off).
    double_sweep:
        Refine seed selection with a second BFS sweep (extension).
    balance_tolerance:
        When set, multi-start selection prefers cuts whose weight
        imbalance fraction is within this bound: the ranking key is
        (infeasible?, cutsize, imbalance).  The paper observes the basic
        algorithm is near-balanced "with high probability" on clustered
        netlists; this knob makes the preference explicit for fair
        comparison against bisection-constrained baselines.
    bfs_mode:
        Double-BFS growth discipline: ``"balanced"`` (equal node-rate
        growth, default) or ``"level"`` (lock-step levels) — see
        :func:`repro.core.dual_cut.double_bfs_cut`.
    objective:
        Multi-start ranking objective: ``"edges"`` (crossing-net count,
        the paper's) or ``"weight"`` (total crossing-net weight; pair
        with ``variant="min_loser_weight"`` so the completion pulls in
        the same direction).
    parallel:
        ``None`` (default) runs starts sequentially on the caller's rng
        stream — bit-for-bit the historical behaviour.  An integer ``k``
        fans the starts across up to ``k`` worker processes; per-start
        child seeds are drawn from ``rng`` up front and ties break by
        start index, so results for a fixed seed are identical for every
        ``k`` (but differ from the sequential stream).
    deadline:
        Wall-clock budget (:class:`repro.runtime.Deadline` or plain
        seconds).  Checked cooperatively between starts: on expiry the
        best cut found so far is returned with ``degraded=True`` and the
        reason recorded, never an exception.  At least one start always
        runs, so a result exists even for an already-expired budget.
    task_timeout:
        Per-start timeout for *parallel* workers: a worker past it is
        killed and the start retried (see ``max_retries``).  ``None``
        disables hang detection.
    max_retries:
        Process retries per parallel start after a crash/hang, each with
        a deterministic seed advance
        (:func:`repro.runtime.advance_seed`); an exhausted budget falls
        back to one hardened in-process attempt.
    journal_path:
        Checkpoint every completed start to an fsynced
        :class:`repro.runtime.RunJournal`, making a long multi-start run
        crash-durable.  Requires ``parallel`` (the pre-drawn per-start
        seed contract — the ``parallel=None`` shared-rng stream cannot
        skip already-completed starts) and an integer-or-``None`` seed.
    resume_path:
        Reopen such a journal: after verifying its settings fingerprint
        (which binds the journal to this exact hypergraph and
        configuration), recorded starts are folded in without re-running
        and only the missing ones execute; journaling continues to the
        same file.  Replayed starts keep their recorded diagnostics but
        do not re-contribute per-start timings or obs counters.

    Returns
    -------
    Algorithm1Result
        Best bipartition over all starts plus per-start diagnostics,
        per-phase ``timings`` and work ``counters``.
    """
    if hypergraph.num_vertices < 2:
        raise Algorithm1Error("need at least two vertices to bipartition")
    if num_starts < 1:
        raise Algorithm1Error(f"num_starts must be >= 1, got {num_starts}")
    if objective not in ("edges", "weight"):
        raise Algorithm1Error(f"objective must be 'edges' or 'weight', got {objective!r}")
    if parallel is not None and parallel < 1:
        raise Algorithm1Error(f"parallel must be >= 1 or None, got {parallel}")
    if edge_size_threshold is not None and edge_size_threshold < 2:
        raise Algorithm1Error(
            f"edge_size_threshold must be >= 2 or None, got {edge_size_threshold}"
        )
    if journal_path is not None or resume_path is not None:
        if parallel is None:
            raise Algorithm1Error(
                "journaling requires parallel (even parallel=1): only the "
                "pre-drawn per-start seed contract can skip completed starts; "
                "the parallel=None shared-rng stream cannot"
            )
        if isinstance(seed, random.Random):
            raise Algorithm1Error(
                "journaling requires an integer (or None) seed: a Random "
                "instance cannot be fingerprinted for resume verification"
            )
        if (
            journal_path is not None
            and resume_path is not None
            and Path(journal_path) != Path(resume_path)
        ):
            raise Algorithm1Error(
                "journal and resume paths differ: a resumed run keeps "
                "appending to the journal it resumes from"
            )
    deadline = Deadline.coerce(deadline)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    timer = obs.PhaseTimer("algorithm1", TIMING_PHASES)
    timings = timer.timings
    prepared = hypergraph.derived(
        ("algorithm1", edge_size_threshold),
        lambda: _prepare(hypergraph, edge_size_threshold, timer),
    )
    ignored = prepared.ignored
    intersection = prepared.intersection
    index = intersection.index

    counters = {
        "num_starts": 0,
        "ignored_edges": len(ignored),
        "dual_nodes": intersection.num_nodes,
        "dual_edges": intersection.num_edges,
        "parallel_workers": 0,
    }
    obs.count("algorithm1.runs")
    obs.count("algorithm1.ignored_edges", len(ignored))
    obs.gauge("algorithm1.dual_nodes", intersection.num_nodes)
    obs.gauge("algorithm1.dual_edges", intersection.num_edges)

    def finish(
        bipartition: Bipartition,
        starts: list[StartRecord] | None = None,
        degrade_reason: str | None = None,
    ) -> Algorithm1Result:
        if starts is None:
            # A seedless answer (edgeless, or packed components) is one record.
            starts = [
                StartRecord(
                    seed_u=None,
                    seed_v=None,
                    bfs_depth=0,
                    boundary_size=0,
                    num_losers=0,
                    cutsize=bipartition.cutsize,
                    weight_imbalance=bipartition.weight_imbalance,
                )
            ]
        counters["num_starts"] = len(starts)
        return Algorithm1Result(
            bipartition=bipartition,
            ignored_edges=ignored,
            starts=tuple(starts),
            intersection=intersection,
            timings=timings,
            counters=counters,
            degraded=degrade_reason is not None,
            degrade_reason=degrade_reason,
        )

    # Open the journal before the deterministic early returns (edgeless
    # instance, balanced component packing): those paths never record a
    # start, but the header-only journal they leave behind still resumes
    # — the fingerprint check runs and the run recomputes, so a user who
    # asked for --journal always gets a resumable artifact.
    journal: RunJournal | None = None
    replayed: dict[int, tuple] = {}
    try:
        if journal_path is not None or resume_path is not None:
            journal_settings = {
                "task": "partition",
                "hypergraph": _hypergraph_digest(hypergraph),
                "num_starts": num_starts,
                "seed": seed,
                "edge_size_threshold": edge_size_threshold,
                "variant": variant,
                "weighted_balance": weighted_balance,
                "double_sweep": double_sweep,
                "balance_tolerance": balance_tolerance,
                "bfs_mode": bfs_mode,
                "objective": objective,
            }
            if resume_path is not None:
                journal, recorded = RunJournal.resume(
                    resume_path, "partition", journal_settings
                )
                for key, value in recorded:
                    replayed[int(key)] = _load_start_value(value, index)
            else:
                journal = RunJournal.create(journal_path, "partition", journal_settings)

        if intersection.num_nodes == 0:
            # Edgeless hypergraph: any balanced split is optimal (cutsize 0).
            with timer.phase("balance"):
                sides = np.full(index.num_vertices, -1, dtype=np.int8)
                _balance_free_vertices(index, sides, rng)
                _ensure_nonempty_sides(index, sides)
                bipartition = index.bipartition(hypergraph, sides)
            return finish(bipartition)

        total_weight = hypergraph.total_vertex_weight or 1.0

        if len(prepared.components) > 1:
            # The c = 0 pathological case: "BFS in G finds the unconnectedness
            # while standard heuristics will often output a locally minimum cut
            # of size Θ(|E|)."  Whole G-components map to vertex-disjoint module
            # blocks (edges in different components cannot share a module), so
            # packing blocks two ways yields a zero cut of the working
            # hypergraph; only filtered-out large edges can still cross.
            #
            # Packing is only the *answer* when it comes out reasonably
            # balanced (one giant component forces a lopsided split — there a
            # real cut through the giant component is required and we fall
            # through to the multi-start loop, which attaches the small
            # components side by side).
            with timer.phase("balance"):
                sides = _pack_components(intersection, prepared.components, rng)
                bipartition = index.bipartition(hypergraph, sides)
            packing_limit = balance_tolerance if balance_tolerance is not None else 0.25
            if bipartition.weight_imbalance / total_weight <= packing_limit:
                obs.count("algorithm1.component_packings")
                return finish(bipartition)

        def run_start(start_rng: random.Random) -> tuple:
            """Steps 3–6 from ``start_rng``: ``(record, rank, sides, timings)``."""
            trace = run_single_start(
                intersection,
                hypergraph,
                start_rng,
                variant=variant,
                weighted_balance=weighted_balance,
                double_sweep=double_sweep,
                bfs_mode=bfs_mode,
            )
            rank = _rank_key(trace, objective, balance_tolerance, total_weight)
            return _start_record(trace), rank, trace.sides, trace.timings

        # parallel=None threads the caller's rng through every start; any
        # parallel (and so every journaled run) draws one child seed per
        # start up front, which is what a pool or a resume can skip over.
        seeds = None if parallel is None else [rng.getrandbits(63) for _ in range(num_starts)]
        records: dict[int, StartRecord] = {}
        best: tuple | None = None  # ((rank, start index), sides)
        degrade_reason: str | None = None

        def fold(i: int, record: StartRecord, rank: tuple, sides, start_timings: dict) -> None:
            # Ties break by start index, so the winner never depends on
            # which start (or worker) reported first.  Only the winning
            # start's side array ever becomes a Bipartition.
            nonlocal best
            records[i] = record
            for phase, dt in start_timings.items():
                timings[phase] += dt
            if best is None or (rank, i) < best[0]:
                best = (rank, i), sides

        def checkpoint(i: int, record: StartRecord, rank: tuple, sides) -> None:
            if journal is not None:
                journal.record(i, _start_value(record, rank, index, sides, seeds[i]))

        # Journal replay: fold in every recorded start without re-running
        # it, before any deadline can stop the run.
        for i in sorted(replayed):
            fold(i, *replayed[i])
        if parallel is not None and parallel > 1 and num_starts > 1:
            pending = [(i, (i, seeds[i])) for i in range(num_starts) if i not in replayed]
            workers = min(parallel, len(pending))
            report = SupervisionReport()
            if pending:

                def on_result(task) -> None:
                    if task.ok:
                        checkpoint(task.key, *task.value[:3])

                worker = functools.partial(
                    _pooled_start, start=run_start, record_obs=obs.is_enabled()
                )
                with SupervisedPool(
                    worker,
                    max_workers=workers,
                    task_timeout=task_timeout,
                    max_retries=max_retries,
                    deadline=deadline,
                    reseed=_reseed_start,
                    on_result=on_result,
                ) as pool:
                    outcomes, report = pool.map(pending)
                for outcome in outcomes:
                    if outcome.ok:
                        *value, snapshot = outcome.value
                        fold(outcome.key, *value)
                        if snapshot is not None and obs.is_enabled():
                            obs.registry().merge(snapshot)
            if best is None:
                raise Algorithm1Error(
                    "all parallel starts failed: " + ("; ".join(report.errors[:5]) or "unknown")
                )
            counters["parallel_workers"] = workers
            obs.gauge("algorithm1.parallel_workers", workers)
            if report.degraded or len(records) < num_starts:
                degrade_reason = (
                    f"{report.summary()} ({len(records)}/{num_starts} starts completed)"
                )
        else:
            for i in range(num_starts):
                if i in replayed:
                    continue
                # Cooperative checkpoint: at least one start always runs or is
                # replayed, so a best-so-far cut exists even for an
                # already-expired budget.
                if records and deadline is not None and deadline.expired():
                    degrade_reason = (
                        f"deadline expired after {len(records)}/{num_starts} starts"
                    )
                    obs.count("algorithm1.deadline_stops")
                    break
                faults.inject("algorithm1.start")
                out = run_start(rng if seeds is None else random.Random(seeds[i]))
                checkpoint(i, *out[:3])
                fold(i, *out)

        obs.count("algorithm1.starts", len(records))
        return finish(
            index.bipartition(hypergraph, best[1]),
            [records[i] for i in sorted(records)],
            degrade_reason,
        )
    finally:
        if journal is not None:
            journal.close()
