"""The engine registry: the one name -> engine mapping.

Every front end that runs an engine by name — the CLI's ``partition``
and ``place``, the portfolio, the ``BENCH_*.json`` regression harness
(:mod:`repro.bench`) and the partition service (:mod:`repro.server`) —
dispatches through this module, and validates names against the tuples
defined here.  They must agree *exactly*: a bench pair replayed through
the daemon (``bench --server``) has to report the same cut as a local
run, and a service cache entry must be reproducible from its settings
fingerprint alone.

Every engine is a deterministic function of ``(hypergraph, seed,
starts, balance_tolerance)``; ``deadline`` only ever *truncates* work
(best-so-far result, ``degraded=True``), never changes the fault-free
answer.

Besides full engines, the registry exposes *refiners*
(:data:`REFINERS`): never-worse post-passes applied to an
already-computed bipartition via ``run_engine(..., refine=...)`` or
:func:`apply_refine`.  The ``flow`` engine is Algorithm I followed by
the ``flow`` refiner on that same path.  A refiner is part of the
service settings fingerprint, so cached daemon results stay keyed by
the exact computation that produced them.

Dispatch names ``algorithm1`` and ``spectral_bisection`` through this
module's globals at call time (never through a table built at import),
so a wrapper installed on ``repro.engines.algorithm1`` sees every call.
"""

from __future__ import annotations

from repro.baselines import (
    fiduccia_mattheyses,
    kernighan_lin,
    random_cut,
    simulated_annealing,
    spectral_bisection,
)
from repro.baselines.simulated_annealing import AnnealingSchedule
from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.core.refinement import fm_refine
from repro.placement import (
    PlacementResult,
    SlotGrid,
    annealing_place,
    mincut_place,
    quadratic_place,
)
from repro.runtime import Deadline

__all__ = [
    "ALL_ENGINES",
    "PLACERS",
    "REFINERS",
    "EngineError",
    "apply_refine",
    "run_engine",
    "run_placer",
]

#: Every dispatchable engine name, in the default bench sweep order.
#: ``spectral`` is deterministic: its Fiedler order is canonicalized
#: (quantize + sign fix + vertex-index tie-break, see
#: ``repro.baselines.spectral``), so its cut is safe for the exact gate.
#: ``flow`` is Algorithm I's best start refined by the exact corridor
#: solver (``repro.flow``).  On the pinned suite (BENCH_pr25_pinned.json)
#: it never improved its Algorithm I seed, and on random200 it cut 86
#: where ``fm`` cut 75 and ``kl`` cut 73.
ALL_ENGINES = ("algorithm1", "fm", "kl", "sa", "random", "spectral", "flow")

#: Post-pass refiners accepted by ``run_engine(..., refine=...)``.
REFINERS = ("flow", "fm")

#: Placement engines accepted by :func:`run_placer`.
PLACERS = ("mincut", "annealing", "quadratic")

#: Bounded SA schedule so repeat-invocation runs stay minutes-free and
#: each engine run sits well under a second (keeping the bench runtime
#: gate's absolute noise floor meaningful); the full-length schedule
#: belongs to the paper-table experiments.
BOUNDED_SA_SCHEDULE = AnnealingSchedule(
    alpha=0.9, max_total_moves=20_000, min_temperature=1e-2, frozen_after=2
)

#: Corridor radius for the ``flow`` refiner.  Radius 2 keeps corridor
#: networks a small fraction of the hypergraph on the bench instances
#: while still letting whole boundary clusters change sides in one
#: exact solve.
FLOW_CORRIDOR_RADIUS = 2

#: Round budget for one refine_flow invocation in engine context.
FLOW_MAX_ROUNDS = 8


class EngineError(ValueError):
    """Raised when an unknown engine, refiner or placer name is dispatched."""


def _base_extras(result) -> dict:
    return {"degraded": result.degraded, "degrade_reason": result.degrade_reason}


def apply_refine(
    refine: str,
    h: Hypergraph,
    bipartition: Bipartition,
    seed: int,
    balance_tolerance: float = 0.1,
    deadline: Deadline | None = None,
    extras: dict | None = None,
) -> tuple:
    """Apply one named refiner; returns ``(bipartition, extras)``.

    ``extras`` are the producing engine's (a clean run when omitted).
    The returned copy gains ``seed_cutsize`` (the cut before the first
    refiner pass, kept across passes) and this pass's ``refine*`` keys;
    a pass cut short by the deadline marks the whole result degraded.

    Both refiners are never-worse: the returned cut is at most the
    input cut, and an expired deadline yields the input back (flagged
    ``degraded`` for ``flow``, which threads the deadline through the
    solve; ``fm`` refinement is bounded by its pass budget instead).
    """
    from repro.flow import refine_flow  # deferred: keep engine import light

    extras = dict(extras or {"degraded": False, "degrade_reason": None})
    extras.setdefault("seed_cutsize", bipartition.cutsize)
    if refine == "flow":
        result = refine_flow(
            h,
            bipartition,
            corridor_radius=FLOW_CORRIDOR_RADIUS,
            balance_tolerance=balance_tolerance,
            max_rounds=FLOW_MAX_ROUNDS,
            deadline=deadline,
        )
        extras.update(
            refine="flow",
            refine_improved=result.improved,
            refine_rounds=result.rounds,
            refine_degraded=result.degraded,
            refine_degrade_reason=result.degrade_reason,
            refine_cut_trajectory=list(result.cut_trajectory),
        )
        if result.degraded:
            extras["degraded"] = True
            extras["degrade_reason"] = extras["degrade_reason"] or result.degrade_reason
        return result.bipartition, extras
    if refine == "fm":
        refined = fm_refine(
            bipartition, balance_tolerance=balance_tolerance, seed=seed
        )
        extras.update(
            refine="fm",
            refine_improved=refined.weighted_cutsize < bipartition.weighted_cutsize,
        )
        return refined, extras
    raise EngineError(f"unknown refiner {refine!r}; choose from {REFINERS}")


def run_engine(
    engine: str,
    h: Hypergraph,
    seed: int,
    starts: int,
    deadline: Deadline | None = None,
    balance_tolerance: float = 0.1,
    refine: str | None = None,
) -> tuple:
    """Run one engine by name; returns ``(bipartition, extras)``.

    ``extras`` is a JSON-ready dict always carrying ``degraded`` (and,
    for ``algorithm1`` and ``flow``, Algorithm I's per-phase timings and
    work counters).  ``refine`` optionally applies a :data:`REFINERS`
    post-pass to the engine's answer with whatever deadline budget
    remains, so ``flow`` with ``refine="flow"`` runs two flow passes.
    """
    if refine is not None and refine not in REFINERS:
        raise EngineError(f"unknown refiner {refine!r}; choose from {REFINERS}")
    base, passes = ("algorithm1", ("flow",)) if engine == "flow" else (engine, ())
    if refine is not None:
        passes += (refine,)
    bipartition, extras = _dispatch(base, h, seed, starts, deadline, balance_tolerance)
    for name in passes:
        bipartition, extras = apply_refine(
            name, h, bipartition, seed, balance_tolerance, deadline, extras
        )
    return bipartition, extras


def _dispatch(
    engine: str,
    h: Hypergraph,
    seed: int,
    starts: int,
    deadline: Deadline | None,
    balance_tolerance: float,
) -> tuple:
    if engine == "algorithm1":
        result = algorithm1(
            h,
            num_starts=starts,
            seed=seed,
            balance_tolerance=balance_tolerance,
            deadline=deadline,
        )
        return result.bipartition, {
            "phases": dict(result.timings),
            "work_counters": dict(result.counters),
            **_base_extras(result),
        }
    if engine == "fm":
        result = fiduccia_mattheyses(
            h, balance_tolerance=balance_tolerance, seed=seed, deadline=deadline
        )
    elif engine == "kl":
        result = kernighan_lin(h, seed=seed, deadline=deadline)
    elif engine == "sa":
        result = simulated_annealing(
            h,
            schedule=BOUNDED_SA_SCHEDULE,
            balance_tolerance=balance_tolerance,
            seed=seed,
            deadline=deadline,
        )
    elif engine == "random":
        result = random_cut(h, num_starts=starts, seed=seed, deadline=deadline)
    elif engine == "spectral":
        result = spectral_bisection(h, seed=seed, deadline=deadline)
    else:
        raise EngineError(f"unknown engine {engine!r}; choose from {ALL_ENGINES}")
    return result.bipartition, _base_extras(result)


def run_placer(
    placer: str,
    h: Hypergraph,
    seed: int,
    rows: int = 0,
    cols: int = 0,
    partitioner: str = "hybrid",
    deadline: Deadline | float | None = None,
) -> PlacementResult:
    """Run one placement engine by name.

    ``rows``/``cols`` of 0 let the placer pick the smallest near-square
    grid; ``partitioner`` applies to ``mincut`` only.
    """
    grid = SlotGrid(rows, cols) if rows and cols else None
    if placer == "mincut":
        return mincut_place(
            h, grid=grid, partitioner=partitioner, seed=seed, deadline=deadline
        )
    if placer == "annealing":
        return annealing_place(h, grid=grid, seed=seed, deadline=deadline)
    if placer == "quadratic":
        return quadratic_place(h, grid=grid, seed=seed, deadline=deadline)
    raise EngineError(f"unknown placer {placer!r}; choose from {PLACERS}")
