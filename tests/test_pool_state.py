"""Two runs in one process keep their own pool state.

A supervised pool's workers get their run's state through the worker
function bound to that pool, never through a module global.  So a whole
second run, started and finished while the first run is building its
pool, leaves the first run's answer as it would have been.  Each test
patches ``SupervisedPool`` as the module under test sees it, so that
building the first pool runs the second run before the pool exists.
Two threads that each run Algorithm I with a pool, again and again,
each get their sequential answers.
"""

from __future__ import annotations

import importlib
import sys
import threading

import pytest

from repro.bench import QUICK_SUITE, run_bench
from repro.core.algorithm1 import algorithm1
from repro.generators import random_hypergraph

pytestmark = pytest.mark.usefixtures("no_leaked_handles")

# importlib dodges the package attribute, which is the ``algorithm1``
# *function* rebound by ``repro.core.__init__``.
algorithm1_module = importlib.import_module("repro.core.algorithm1")
bench_module = importlib.import_module("repro.bench")


def run_before_first_pool(monkeypatch, module, other_run) -> list:
    """Make the first pool ``module`` builds wait for a whole ``other_run()``.

    Returns the list that receives ``other_run``'s result.  Pools that
    ``other_run`` builds itself are built unpatched.
    """
    real = module.SupervisedPool
    started, results = [], []

    def pool(*args, **kwargs):
        if not started:
            started.append(True)
            results.append(other_run())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "SupervisedPool", pool)
    return results


def answer(result) -> tuple:
    bp = result.bipartition
    return bp.left, bp.right, result.starts, result.counters


class TestAlgorithm1:
    def test_run_between_pool_build_and_map_keeps_the_answer(self, monkeypatch):
        h = random_hypergraph(60, 100, seed=5, connect=True)
        other = random_hypergraph(40, 70, seed=9, connect=True)
        expected = algorithm1(h, num_starts=6, seed=1, parallel=2)
        other_expected = algorithm1(other, num_starts=4, seed=3, parallel=2)

        nested = run_before_first_pool(
            monkeypatch,
            algorithm1_module,
            lambda: algorithm1(other, num_starts=4, seed=3, parallel=2),
        )
        result = algorithm1(h, num_starts=6, seed=1, parallel=2)

        assert len(nested) == 1
        assert answer(nested[0]) == answer(other_expected)
        assert not result.degraded and result.degrade_reason is None
        assert result.counters["parallel_workers"] == 2
        assert answer(result) == answer(expected)

    def test_two_threads_each_get_their_own_answers(self):
        hypergraphs = [
            random_hypergraph(60, 100, seed=5, connect=True),
            random_hypergraph(80, 130, seed=6, connect=True),
        ]
        expected = [answer(algorithm1(h, num_starts=6, seed=1, parallel=2)) for h in hypergraphs]
        failures = []

        def run(k: int) -> None:
            for _ in range(8):
                try:
                    got = answer(algorithm1(hypergraphs[k], num_starts=6, seed=1, parallel=2))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                if got != expected[k]:
                    failures.append(f"thread {k}: another answer")

        # Switch threads every few bytecodes, so pools are built and
        # mapped while the other thread's run is anywhere in its own.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def numbers(payload: dict) -> list[tuple]:
    """Each pair's deterministic fields (no timings)."""
    return [
        (
            e["instance"],
            e["engine"],
            e.get("failed", False),
            e["cutsize"],
            e["weighted_cutsize"],
            e["imbalance_fraction"],
            e["counters"],
        )
        for e in payload["results"]
    ]


class TestBench:
    KWARGS = dict(cases=QUICK_SUITE, engines=("fm",), repeats=1, parallel=2)

    def test_run_between_pool_build_and_map_keeps_the_instances(self, monkeypatch):
        expected = run_bench("expected", **self.KWARGS)

        nested = run_before_first_pool(
            monkeypatch, bench_module, lambda: run_bench("nested", **self.KWARGS)
        )
        payload = run_bench("outer", **self.KWARGS)

        assert len(nested) == 1
        assert numbers(nested[0]) == numbers(expected)
        assert not any(e.get("failed") for e in payload["results"])
        assert payload["supervision"]["summary"] == "clean"
        assert numbers(payload) == numbers(expected)
