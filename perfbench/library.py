"""The library workloads: hypergraph in, verified bipartition out.

A pass runs every (instance, engine) job of the workload once, in a
fixed order, through :func:`repro.engines.run_engine` — the engine
registry the bench harness and the daemon share.  Passes repeat until
the run's seconds are spent (at least one pass).  Every result is
verified against its hypergraph, and every job's cut must repeat
exactly on every pass, outside the timed calls.

Instances come in kinds (random, std-cell netlist), several of each,
interleaved.  Times are reported per (kind, engine) as the median over
that kind's instances and the passes, so a stretch of a slower host
that covers less than half of a run does not move them.
"""

from __future__ import annotations

import collections
import gc
import importlib
import random
import resource
import time
from dataclasses import dataclass

from repro import obs
from repro.engines import ALL_ENGINES, run_engine
from repro.metrics import verify

from perfbench import calibrate, layers, stats, tracer

# The modules themselves: the package re-exports functions under the
# same names, which would shadow them in an ``import ... as``.
random_hypergraphs = importlib.import_module("repro.generators.random_hypergraph")
netlists = importlib.import_module("repro.generators.netlists")

#: An untraced run sets up at least this many times, and for at least
#: this many seconds; setup_s is the median.
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
KINDS = ("random", "netlist")


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    kind: str  # one of KINDS
    modules: int
    signals: int


@dataclass(frozen=True)
class LibraryWorkload:
    instances: tuple[InstanceSpec, ...]
    engines: tuple[str, ...]
    starts: int


def family(modules: int, per_kind: int) -> tuple[InstanceSpec, ...]:
    """``per_kind`` instances of each kind, interleaved, 1.6 signals per module."""
    return tuple(
        InstanceSpec(f"{kind}{modules}.{i}", kind, modules, modules * 8 // 5)
        for i in range(per_kind)
        for kind in KINDS
    )


WORKLOADS = {
    # Algorithm I alone: the core CSR and vectorized paths do nearly all
    # the work; the std-cell netlists keep the large-edge filter busy,
    # which the random instances do not.  10k modules, not the
    # LARGE_SUITE's 100k: in raw wall time, runs with 100k and 25k
    # instances spread by a quarter from seed to seed on a shared host.
    "alg1-10k": LibraryWorkload(instances=family(10_000, 6), engines=("algorithm1",), starts=3),
    # Every registered engine: the baselines and flow do most of the
    # work, and Algorithm I's share gives the paper's Table 2 ratio.
    # KL and FM run to convergence, so their cost swings by a third from
    # one instance to the next; six instances of each kind average that
    # out where one 2k instance of each could not.
    "engines-1k": LibraryWorkload(instances=family(1000, 6), engines=ALL_ENGINES, starts=10),
}


def derived_seed(seed: int, label: str) -> int:
    """A 32-bit seed for ``label``, derived from the workload seed."""
    return random.Random(f"{seed}:{label}").getrandbits(32)


def build_instance(spec: InstanceSpec, seed: int):
    # Looked up through the modules at call time, so the tracer sees it.
    instance_seed = derived_seed(seed, spec.name)
    if spec.kind == "random":
        return random_hypergraphs.random_hypergraph(
            spec.modules, spec.signals, seed=instance_seed, connect=True
        )
    return netlists.clustered_netlist(
        spec.modules, spec.signals, technology="std_cell", seed=instance_seed
    )


def partition_body(bipartition) -> dict:
    """The claims of one result, in the form the verify gate checks."""
    return {
        "left": list(bipartition.left),
        "right": list(bipartition.right),
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
    }


class Checker:
    """Verifies results and holds each job to its first cut."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.cuts: dict = {}

    def check(self, job, hypergraph, bipartition, extras: dict) -> None:
        self.attempted += 1
        try:
            verify.verify_partition_body(hypergraph, partition_body(bipartition))
        except verify.IntegrityError as exc:
            self.failures.append(f"{job}: {exc}")
            return
        if extras.get("degraded"):
            self.failures.append(f"{job}: degraded result")
            return
        first = self.cuts.setdefault(job, bipartition.cutsize)
        if first != bipartition.cutsize:
            self.failures.append(f"{job}: cut {bipartition.cutsize} != first pass {first}")

    def fail(self, job, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{job}: {message}")


def _warm_up(engines, seed: int) -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    h = random_hypergraphs.random_hypergraph(60, 96, seed=seed, connect=True)
    for engine in engines:
        run_engine(engine, h, seed=seed, starts=1)


def run_passes(workload: LibraryWorkload, instances, seed: int, seconds: float,
               checker: Checker, gauge: calibrate.SpeedGauge) -> list[dict]:
    """Run passes until ``seconds`` of pass time is spent; one record per pass.

    A pass maps each job ``(instance spec, engine)`` to its latency.
    ``gauge`` takes a speed sample before every job.
    """
    engine_seed = derived_seed(seed, "engine")
    passes: list[dict] = []
    spent = 0.0
    while not passes or spent < seconds:
        latencies, results = {}, []
        for spec, h in instances:
            for engine in workload.engines:
                job = (spec, engine)
                gauge.sample()
                t0 = time.perf_counter()
                try:
                    bipartition, extras = run_engine(
                        engine, h, seed=engine_seed, starts=workload.starts
                    )
                except Exception as exc:  # a failed job is counted, not fatal
                    checker.fail(job, f"{type(exc).__name__}: {exc}")
                    continue
                latencies[job] = time.perf_counter() - t0
                results.append((job, h, bipartition, extras))
        for job, h, bipartition, extras in results:
            checker.check(job, h, bipartition, extras)
        passes.append({"latencies": latencies, "results": results})
        spent += sum(latencies.values())
    return passes


def kind_medians(passes) -> dict[tuple[str, str], float]:
    """Median latency of each (kind, engine) over its instances and passes."""
    samples = collections.defaultdict(list)
    for p in passes:
        for (spec, engine), latency in p["latencies"].items():
            samples[spec.kind, engine].append(latency)
    return {key: stats.median(latencies) for key, latencies in samples.items()}


def engine_seconds(workload: LibraryWorkload, passes) -> dict[str, float]:
    """Seconds each engine takes per pass, every job at its kind's median."""
    per_kind = collections.Counter(spec.kind for spec in workload.instances)
    seconds: dict[str, float] = collections.defaultdict(float)
    for (kind, engine), median in kind_medians(passes).items():
        seconds[engine] += per_kind[kind] * median
    return dict(seconds)


def _setup(workload: LibraryWorkload, seed: int):
    return [(spec, build_instance(spec, seed)) for spec in workload.instances]


def end_to_end(workload: LibraryWorkload, seed: int, seconds: float, checker: Checker,
               report) -> dict:
    gauge = calibrate.SpeedGauge()
    setups, instances = [], None
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        instances = None  # free the previous set-up before timing the next
        gc.collect()
        gauge.sample()
        t0 = time.perf_counter()
        instances = _setup(workload, seed)
        setups.append(time.perf_counter() - t0)
    _warm_up(workload.engines, seed)
    # Keep full collections off the long-lived instances, so a job's
    # time does not hinge on when one happens to land.
    gc.collect()
    gc.freeze()
    passes = run_passes(workload, instances, seed, seconds, checker, gauge)
    gc.unfreeze()
    report_passes(workload, passes, report)
    first = [bipartition for _, _, bipartition, _ in passes[0]["results"]]
    times = {
        "setup_s": stats.median(setups),
        "partition_s": sum(engine_seconds(workload, passes).values()),
        "op_geomean_ms": 1000 * stats.geomean(kind_medians(passes).values()),
    }
    return {
        **normalized(times, gauge, report),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cut_total": sum(bp.cutsize for bp in first),
        "heavy_side_frac": stats.mean((1 + bp.weight_imbalance_fraction) / 2 for bp in first),
    }


def normalized(times: dict[str, float], gauge: calibrate.SpeedGauge, report) -> dict:
    """``times`` divided by the run's speed factor; the raw ones are printed."""
    factor = gauge.factor()
    report(f"speed factor {factor:.4f} over {len(gauge.samples)} samples; raw "
           + " ".join(f"{name}={value:.6g}" for name, value in times.items()))
    return {name: value / factor for name, value in times.items()}


def per_layer(workload: LibraryWorkload, seed: int, seconds: float, checker: Checker,
              report) -> dict:
    with tracer.Tracer().wrap_all(tracer.GENERATOR_TARGETS), obs.enabled(clear=True) as reg:
        instances = _setup(workload, seed)
        build_s = tracer.span_totals(reg.snapshot()).get("generators.build", 0.0)
    _warm_up(workload.engines, seed)
    gc.collect()
    gc.freeze()
    gauge = calibrate.SpeedGauge()
    plain = run_passes(workload, instances, seed, seconds / 2, checker, gauge)
    with tracer.library_tracer(), obs.enabled(clear=True) as reg:
        traced = run_passes(workload, instances, seed, seconds / 2, checker, gauge)
        snapshot = reg.snapshot()
    gc.unfreeze()
    report_passes(workload, plain, report)
    wait_s = sum(sum(p["latencies"].values()) for p in traced)
    out = layers.derive(
        tracer.span_totals(snapshot), snapshot["counters"], len(traced), wait_s
    )
    out["generators.build_s"] = build_s
    out["trace.overhead_frac"] = (
        sum(engine_seconds(workload, traced).values())
        / sum(engine_seconds(workload, plain).values()) - 1
    )
    return out


def report_passes(workload: LibraryWorkload, passes, report) -> None:
    """Print per-engine seconds, the Table 2 ratio and the flow-vs-seed cuts."""
    by_engine = engine_seconds(workload, passes)
    report("engine seconds per pass: " + " ".join(f"{e}={s:.3f}" for e, s in by_engine.items()))
    if {"algorithm1", "sa", "kl"} <= set(by_engine):
        base = by_engine["algorithm1"]
        report(
            "table2 alg1 : sa : kl = 1 : {:.2f} : {:.2f}  "
            "(alg1_s={:.3f} sa_s={:.3f} kl_s={:.3f})".format(
                by_engine["sa"] / base, by_engine["kl"] / base,
                base, by_engine["sa"], by_engine["kl"],
            )
        )
    for (spec, engine), _, bipartition, extras in passes[0]["results"]:
        if engine == "flow":
            report(
                f"flow vs seed {spec.name}: cut {bipartition.cutsize} vs seed "
                f"{extras.get('seed_cutsize')}"
            )
