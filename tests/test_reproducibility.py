"""Reproducibility of parallel multi-start Algorithm I.

The contract (established when the parallel path landed): child seeds for
all starts are pre-drawn from the master seed, so the result and the full
``StartRecord`` stream are *identical for every worker count* ``k >= 1``.
``parallel=None`` is excluded from the cross-``k`` identity on purpose —
it preserves the historical sequential rng stream (one shared
``random.Random`` threaded through the starts), which draws differently
from the pre-drawn per-start seeds; changing that would silently shift
every seeded result users have recorded.  It must still be deterministic
run to run, which is asserted separately.

Resolution (PR 5, recorded in ROADMAP.md): the two streams are **both
permanent, intended contracts** — they will not be unified.  The
sequential stream is frozen for historical reproducibility; the
pre-drawn per-start stream is frozen because worker-count invariance
and journal checkpoint/resume (``--journal``/``--resume`` skip
completed starts by index) both depend on it.  ``partition --help``
documents the split under ``--parallel``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.algorithm1 import algorithm1
from repro.engines import ALL_ENGINES
from repro.generators import random_hypergraph

SRC = Path(__file__).resolve().parents[1] / "src"

STARTS = 8
SEED = 123


@pytest.fixture(scope="module")
def instance():
    return random_hypergraph(80, 130, seed=9, connect=True)


@pytest.fixture(scope="module")
def per_worker_results(instance):
    return {
        k: algorithm1(instance, num_starts=STARTS, seed=SEED, parallel=k)
        for k in (1, 2, 4)
    }


class TestWorkerCountInvariance:
    def test_bipartitions_identical(self, per_worker_results):
        base = per_worker_results[1]
        for k in (2, 4):
            assert per_worker_results[k].bipartition == base.bipartition, (
                f"parallel={k} returned a different cut than parallel=1"
            )

    def test_cutsizes_identical(self, per_worker_results):
        cuts = {k: r.cutsize for k, r in per_worker_results.items()}
        assert len(set(cuts.values())) == 1, cuts

    def test_start_record_streams_identical(self, per_worker_results):
        base = per_worker_results[1].starts
        assert len(base) == STARTS
        for k in (2, 4):
            assert per_worker_results[k].starts == base, (
                f"parallel={k} produced a different StartRecord stream"
            )

    def test_ignored_edges_identical(self, per_worker_results):
        base = per_worker_results[1]
        for k in (2, 4):
            assert per_worker_results[k].ignored_edges == base.ignored_edges


class TestRunToRunDeterminism:
    def test_sequential_is_deterministic(self, instance):
        a = algorithm1(instance, num_starts=STARTS, seed=SEED)
        b = algorithm1(instance, num_starts=STARTS, seed=SEED)
        assert a.bipartition == b.bipartition
        assert a.starts == b.starts

    def test_parallel_is_deterministic(self, instance):
        a = algorithm1(instance, num_starts=STARTS, seed=SEED, parallel=2)
        b = algorithm1(instance, num_starts=STARTS, seed=SEED, parallel=2)
        assert a.bipartition == b.bipartition
        assert a.starts == b.starts

    def test_different_seeds_differ(self, instance):
        """Determinism must come from the seed, not from ignoring it."""
        streams = {
            seed: algorithm1(instance, num_starts=STARTS, seed=seed, parallel=1).starts
            for seed in (1, 2, 3)
        }
        assert len(set(streams.values())) > 1


# ----------------------------------------------------------------------
# Bench fan-out: worker count must not change a single recorded number


TIMING_FIELDS = ("seconds", "spans", "phases")


def _bench_records(payload):
    """Result records with timing fields stripped, in suite order."""
    return [
        {k: v for k, v in entry.items() if k not in TIMING_FIELDS}
        for entry in payload["results"]
    ]


class TestBenchWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def bench_runs(self):
        from repro.bench import QUICK_SUITE, run_bench

        kwargs = dict(
            cases=QUICK_SUITE,
            engines=("algorithm1", "random", "fm"),
            starts=2,
            repeats=1,
            seed=0,
        )
        sequential = run_bench("seq", **kwargs)
        parallel = {
            workers: run_bench(f"par{workers}", **kwargs, parallel=workers)
            for workers in (1, 2, 4)
        }
        return sequential, parallel

    def test_parallel_matches_sequential_excluding_timing(self, bench_runs):
        sequential, parallel = bench_runs
        expected = _bench_records(sequential)
        for workers, payload in parallel.items():
            assert _bench_records(payload) == expected, f"parallel={workers} diverged"

    def test_no_pair_failed_without_faults(self, bench_runs):
        sequential, parallel = bench_runs
        for payload in [sequential, *parallel.values()]:
            assert not any(e.get("failed") for e in payload["results"])
        for payload in parallel.values():
            assert payload["supervision"]["summary"] == "clean"

    def test_compare_bench_sees_no_regressions_across_paths(self, bench_runs):
        from repro.bench import compare_bench

        sequential, parallel = bench_runs
        for payload in parallel.values():
            # Generous runtime tolerance: this asserts cut/coverage
            # identity, not machine timing.
            assert compare_bench(sequential, payload, runtime_tolerance=100.0) == []


# ----------------------------------------------------------------------
# Implicit vertices: a module first seen as a pin becomes a vertex in pin
# order, so neither the vertex order nor any engine's answer follows the
# hash seed's iteration order of a set of str labels.


SIGNALS = {  # the netlist of examples/quickstart.py
    "clk": ["ff1", "ff2", "ff3", "ff4"],
    "d1": ["ff1", "alu"],
    "d2": ["ff2", "alu"],
    "q1": ["alu", "mux"],
    "q2": ["mux", "ff3"],
    "sel": ["ctrl", "mux"],
    "en": ["ctrl", "ff4"],
    "a0": ["alu", "reg0"],
    "a1": ["alu", "reg1"],
    "r": ["reg0", "reg1"],
}
BUILDS = ("edges", "netlist", "payload")

IMPLICIT_VERTEX_RUN = """
import json, sys
from repro import Hypergraph
from repro.engines import ALL_ENGINES, run_engine
from repro.io.json_io import hypergraph_from_payload
from repro.io.netlist import parse_netlist

signals = json.loads(sys.argv[1])
builds = {
    "edges": Hypergraph(edges=signals),
    "netlist": parse_netlist("".join(f"{n}: {' '.join(p)}\\n" for n, p in signals.items())),
    "payload": hypergraph_from_payload(
        {"vertices": [], "edges": [[n, p, 1] for n, p in signals.items()]}
    ),
}
out = {}
for kind, h in builds.items():
    sides = {}
    for engine in ALL_ENGINES:
        bp, _ = run_engine(engine, h, seed=0, starts=4)
        sides[engine] = [sorted(bp.left), sorted(bp.right)]
    out[kind] = {"vertices": h.vertices, "sides": sides}
print(json.dumps(out))
"""


class TestImplicitVertexOrder:
    @pytest.fixture(scope="class")
    def runs(self) -> dict:
        """Each build's vertices and every engine's sides, per hash seed."""
        out = {}
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", IMPLICIT_VERTEX_RUN, json.dumps(SIGNALS)],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            out[hash_seed] = json.loads(proc.stdout.splitlines()[-1])
        return out

    @pytest.mark.parametrize("kind", BUILDS)
    def test_vertices_follow_pin_order(self, runs, kind):
        first_seen = list(dict.fromkeys(pin for pins in SIGNALS.values() for pin in pins))
        for run in runs.values():
            assert run[kind]["vertices"] == first_seen

    @pytest.mark.parametrize("kind", BUILDS)
    def test_every_engine_gives_the_same_sides(self, runs, kind):
        assert sorted(runs["1"][kind]["sides"]) == sorted(ALL_ENGINES)
        assert runs["1"][kind]["sides"] == runs["2"][kind]["sides"]
