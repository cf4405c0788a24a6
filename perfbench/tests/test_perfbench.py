"""Self-tests: every workload at toy size, through the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, library, run, service, tracer

ROOT = run.ROOT

TOY_LIBRARY = {
    "alg1-10k": library.LibraryWorkload(
        instances=library.family(300, 2), engines=("algorithm1",), starts=2
    ),
    "engines-1k": library.LibraryWorkload(
        instances=library.family(80, 1), engines=library.WORKLOADS["engines-1k"].engines, starts=2
    ),
}
TOY_SERVICE = service.ServiceWorkload(
    pool=service._pool((60, 120)), starts=2, hits_per_pass=2
)

ALL_TARGETS = (
    tracer.CORE_TARGETS + tracer.BASELINE_TARGETS + tracer.FLOW_TARGETS
    + (tracer.VERIFY_TARGET,) + tracer.GENERATOR_TARGETS
)


def _bound_functions():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in ALL_TARGETS
    }


def _assert_metric_set(metrics: dict, units: dict) -> None:
    assert set(metrics) == set(units)
    for name, value in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("name", sorted(TOY_LIBRARY))
def test_library_workload_emits_every_metric(name):
    checker = library.Checker()
    # Long enough for several passes, so the repeat-cut check runs.
    metrics = library.end_to_end(TOY_LIBRARY[name], 1, 0.5, checker, lambda line: None)
    _assert_metric_set(metrics, run.END_TO_END)
    assert checker.attempted > 0 and not checker.failures


@pytest.mark.parametrize("name", sorted(TOY_LIBRARY))
def test_traced_library_run_restores_wrappers_and_accounts_for_alg1(name):
    before = _bound_functions()
    checker = library.Checker()
    metrics = library.per_layer(TOY_LIBRARY[name], 2, 0.0, checker, lambda line: None)
    assert _bound_functions() == before
    metrics.update({"calib.python_s": 0.0, "calib.numpy_s": 0.0})
    _assert_metric_set(metrics, layers.PER_LAYER)
    assert not checker.failures
    stages = sum(metrics[f"core.{stage}_s"] for stage in layers.CORE_STAGES)
    assert metrics["core.alg1_s"] > 0
    assert 0 <= metrics["core.unattributed_s"] < metrics["core.alg1_s"]
    assert stages + metrics["core.unattributed_s"] == pytest.approx(metrics["core.alg1_s"])


def test_tracer_restores_what_it_wrapped_even_on_error():
    before = _bound_functions()
    with pytest.raises(RuntimeError):
        with tracer.library_tracer(), tracer.Tracer().wrap_all(tracer.GENERATOR_TARGETS):
            assert _bound_functions() != before
            raise RuntimeError("boom")
    assert _bound_functions() == before


def test_service_workload_emits_every_metric(monkeypatch):
    monkeypatch.chdir(ROOT)
    with service.Run(TOY_SERVICE, 3, lambda line: None) as svc:
        metrics = service.end_to_end(TOY_SERVICE, 3, 0.5, svc)
    _assert_metric_set(metrics, run.END_TO_END)
    assert svc.attempted > 0 and not svc.failures


def test_traced_service_run_splits_request_time(monkeypatch):
    monkeypatch.chdir(ROOT)
    with service.Run(TOY_SERVICE, 4, lambda line: None) as svc:
        metrics = service.per_layer(TOY_SERVICE, 4, 1.0, svc)
    metrics.update({"calib.python_s": 0.0, "calib.numpy_s": 0.0})
    _assert_metric_set(metrics, layers.PER_LAYER)
    assert not svc.failures
    assert metrics["core.alg1_s"] > 0 and metrics["server.engine_frac"] > 0
    assert metrics["server.cache.hit_ratio"] == pytest.approx(2 / 6)
    assert not (ROOT / ".perfbench_run").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
