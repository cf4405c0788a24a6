"""Portfolio partitioning: run several engines, keep the best feasible cut.

Hartoog's observation (paper Section 1) — "no one algorithm in the
literature consistently gives good results" — has a practical corollary:
production flows run a *portfolio*.  This module packages it: run any
subset of the library's engines on one netlist and return the best cut
that satisfies the balance constraint, with a per-engine scoreboard.

Robustness contract
-------------------
A portfolio exists so that one engine's bad day does not sink the run.
Each engine executes in crash isolation: an exception is recorded as an
infeasible :class:`PortfolioEntry` carrying the error string, the
remaining engines still run, and winner selection skips failed entries.
Only when *every* engine fails does :func:`best_partition` raise
(:class:`PortfolioError`, listing each failure) — unless
``on_error='raise'`` asks for the first engine exception to propagate
immediately.  A ``deadline`` is threaded into every engine that accepts
one; engines that have not started when it expires are recorded as
skipped.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import obs
from repro.baselines import multilevel_bipartition
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.engines import ALL_ENGINES, REFINERS, apply_refine, run_engine
from repro.runtime import Deadline, faults

#: The default sweep, in running order: registry engines
#: (:data:`repro.engines.ALL_ENGINES`) plus the portfolio-only
#: ``multilevel``.
DEFAULT_METHODS = ("algorithm1", "multilevel", "fm", "kl", "sa", "spectral", "flow")

ON_ERROR_MODES = ("raise", "degrade")


class PortfolioError(RuntimeError):
    """Raised when every engine in the portfolio failed."""


@dataclass(frozen=True)
class PortfolioEntry:
    """One engine's outcome inside a portfolio run.

    ``error`` is ``None`` for a successful run; on failure it holds
    ``"<ExceptionType>: <message>"`` and the cut fields are zeroed with
    ``feasible=False`` so failed entries can never win.  ``degraded``
    marks engines that hit their deadline and returned best-so-far.
    """

    method: str
    cutsize: int
    weighted_cutsize: float
    weight_imbalance_fraction: float
    feasible: bool
    seconds: float
    error: str | None = None
    degraded: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class PortfolioResult:
    """Best cut plus the scoreboard."""

    bipartition: Bipartition
    winner: str
    entries: tuple[PortfolioEntry, ...]
    #: Refiner applied to the winner (``None`` when no post-pass ran).
    refined: str | None = None
    #: The winner's cutsize before the refinement post-pass.
    unrefined_cutsize: int | None = None

    @property
    def cutsize(self) -> int:
        return self.bipartition.cutsize

    @property
    def degraded(self) -> bool:
        """True when any engine failed, was skipped, or hit its deadline."""
        return any(e.failed or e.degraded for e in self.entries)


def best_partition(
    hypergraph: Hypergraph,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    balance_tolerance: float = 0.1,
    num_starts: int = 25,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
    on_error: str = "degrade",
    refine: str | None = None,
) -> PortfolioResult:
    """Run a portfolio of partitioners and return the best feasible cut.

    Parameters
    ----------
    hypergraph:
        Netlist to cut.
    methods:
        Engine names from :data:`repro.engines.ALL_ENGINES` plus
        ``multilevel``, in running order; registry engines run through
        :func:`repro.engines.run_engine`.
    balance_tolerance:
        Weight-imbalance fraction defining feasibility; infeasible cuts
        only win when nothing feasible exists.
    num_starts:
        Multi-start budget for Algorithm I and random-restart engines.
    seed:
        Integer seed or :class:`random.Random`.
    deadline:
        Wall-clock budget (``Deadline`` or seconds) shared by the whole
        portfolio; engines degrade cooperatively and engines not yet
        started at expiry are recorded as skipped.
    on_error:
        ``'degrade'`` (default) records engine exceptions on the
        scoreboard and continues; ``'raise'`` propagates the first one.
    refine:
        Optional never-worse post-pass (:data:`repro.engines.REFINERS`)
        applied to the winning bipartition with whatever deadline
        budget remains.
    """
    known = ALL_ENGINES + ("multilevel",)
    unknown = set(methods) - set(known)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; choose from {known}")
    if not methods:
        raise ValueError("need at least one method")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    if refine is not None and refine not in REFINERS:
        raise ValueError(f"unknown refiner {refine!r}; choose from {REFINERS}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)

    def run(method: str, engine_seed: int) -> tuple[Bipartition, bool]:
        if method == "multilevel":
            result = multilevel_bipartition(
                hypergraph,
                balance_tolerance=balance_tolerance,
                seed=engine_seed,
                deadline=deadline,
            )
            return result.bipartition, result.degraded
        bp, extras = run_engine(
            method,
            hypergraph,
            seed=engine_seed,
            starts=num_starts,
            deadline=deadline,
            balance_tolerance=balance_tolerance,
        )
        return bp, extras["degraded"]

    entries: list[PortfolioEntry] = []
    best: tuple[tuple, str, Bipartition] | None = None
    with obs.span("portfolio"):
        for position, method in enumerate(methods):
            # The engine seed is drawn unconditionally so the rng stream —
            # and thus every engine's behaviour — does not depend on how
            # earlier engines fared.
            engine_seed = rng.randrange(2**31)
            if position > 0 and deadline is not None and deadline.expired():
                entries.append(
                    _failed_entry(method, 0.0, "skipped: portfolio deadline expired")
                )
                obs.count("portfolio.engines_skipped")
                continue
            start = time.perf_counter()
            try:
                faults.inject(f"portfolio.engine.{method}")
                bp, degraded = run(method, engine_seed)
            except Exception as exc:
                if on_error == "raise":
                    raise
                elapsed = time.perf_counter() - start
                entries.append(
                    _failed_entry(method, elapsed, f"{type(exc).__name__}: {exc}")
                )
                obs.count("portfolio.engine_failures")
                continue
            elapsed = time.perf_counter() - start
            feasible = bp.weight_imbalance_fraction <= balance_tolerance
            if degraded:
                obs.count("portfolio.engines_degraded")
            entries.append(
                PortfolioEntry(
                    method=method,
                    cutsize=bp.cutsize,
                    weighted_cutsize=bp.weighted_cutsize,
                    weight_imbalance_fraction=bp.weight_imbalance_fraction,
                    feasible=feasible,
                    seconds=elapsed,
                    degraded=degraded,
                )
            )
            key = (not feasible, bp.cutsize, bp.weight_imbalance_fraction)
            if best is None or key < best[0]:
                best = (key, method, bp)

    if best is None:
        failures = "; ".join(f"{e.method}: {e.error}" for e in entries)
        raise PortfolioError(f"all {len(entries)} portfolio engines failed ({failures})")

    winner_bp = best[2]
    refined = None
    unrefined_cutsize = None
    # Drawn unconditionally (like engine seeds) so the stream is stable
    # whether or not the post-pass runs.
    refine_seed = rng.randrange(2**31)
    if refine is not None:
        unrefined_cutsize = winner_bp.cutsize
        winner_bp, _ = apply_refine(
            refine,
            hypergraph,
            winner_bp,
            seed=refine_seed,
            balance_tolerance=balance_tolerance,
            deadline=deadline,
        )
        refined = refine
        obs.count("portfolio.refined")
    return PortfolioResult(
        bipartition=winner_bp,
        winner=best[1],
        entries=tuple(entries),
        refined=refined,
        unrefined_cutsize=unrefined_cutsize,
    )


def _failed_entry(method: str, seconds: float, error: str) -> PortfolioEntry:
    return PortfolioEntry(
        method=method,
        cutsize=0,
        weighted_cutsize=0.0,
        weight_imbalance_fraction=0.0,
        feasible=False,
        seconds=seconds,
        error=error,
        degraded=True,
    )
