"""Weight sums are exact, so correct results pass the integrity gate.

With fractional vertex weights a plain ``sum`` over a set depends on the
set's iteration order, and the claimed imbalance (``|wL - wR| / (wL +
wR)``) and the verifier's recomputation used to be two different
formulas.  Every side weight, weighted cut and imbalance fraction is now
a ``math.fsum`` under one shared definition, so a correct result always
verifies, and Algorithm I's start records no longer depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.partition import Bipartition, imbalance_fraction
from repro.engines import ALL_ENGINES, run_engine
from repro.generators import random_hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.metrics import verify
from repro.metrics.balance import weight_imbalance_fraction
from repro.server import PartitionService, ServiceClient, ServiceConfig

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module weights with no exact binary form: their sums depend on order.
WEIGHTS = (0.1, 0.2, 0.3, 0.7)


def fractional(seed: int, modules: int = 120):
    h = random_hypergraph(modules, modules * 8 // 5, seed=seed, connect=True)
    rng = random.Random(seed)
    for v in h.vertices:
        h.set_vertex_weight(v, rng.choice(WEIGHTS))
    return h


def claims(bipartition: Bipartition) -> dict:
    return {
        "left": list(bipartition.left),
        "right": list(bipartition.right),
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
    }


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_every_engine_result_verifies(engine):
    for seed in range(3):
        h = fractional(seed)
        bipartition, _ = run_engine(engine, h, seed=seed, starts=4)
        verify.verify_partition_body(h, claims(bipartition))


def test_one_imbalance_definition():
    h = fractional(7)
    left = set(list(h.vertices)[::3])
    bipartition = Bipartition(h, left, set(h.vertices) - left)
    assert bipartition.weight_imbalance_fraction == weight_imbalance_fraction(h, left)
    assert bipartition.weight_imbalance_fraction == imbalance_fraction(
        bipartition.left_weight, bipartition.right_weight
    )


def test_daemon_serves_fractional_weights():
    service = PartitionService(ServiceConfig(port=0, workers=1, batch_window=0.002)).start()
    try:
        client = ServiceClient(url=service.url, timeout=120.0)
        client.wait_ready(timeout=10.0)
        for seed in range(3):
            body = {
                "op": "partition",
                "engine": "algorithm1",
                "hypergraph": hypergraph_to_payload(fractional(seed)),
            }
            status, raw = client.request_raw(
                "POST", "/partition", json.dumps(body).encode("utf-8")
            )
            assert status == 200, raw
    finally:
        service.stop()


START_RECORDS = """
import random
from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.generators import random_hypergraph

for seed in range(3):
    base = random_hypergraph(150, 240, seed=seed, connect=True)
    rng = random.Random(seed)
    h = Hypergraph()
    for v in base.vertices:
        h.add_vertex(f"m{{v}}", rng.choice({weights!r}))
    for name, members in base.iter_edges():
        h.add_edge([f"m{{v}}" for v in members], name=f"n{{name}}")
    result = algorithm1(h, num_starts=4, seed=seed, weighted_balance=seed == 2)
    print(result.starts)
    print(sorted(result.bipartition.left))
"""


def run_with_hash_seed(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_start_records_do_not_depend_on_the_hash_seed():
    script = START_RECORDS.format(weights=WEIGHTS)
    assert run_with_hash_seed(script, "1") == run_with_hash_seed(script, "2")
