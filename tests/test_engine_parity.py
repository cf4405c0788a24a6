"""Every front end runs the registry's engines, so they report the same cuts.

The CLI's ``partition`` and ``place``, the portfolio and the daemon's
``/place`` all dispatch through :mod:`repro.engines`; these tests hold
each front end to the registry's answer for the same seed and starts.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import obs
from repro.baselines import fiduccia_mattheyses, simulated_annealing
from repro.cli import main
from repro.engines import ALL_ENGINES, BOUNDED_SA_SCHEDULE, PLACERS, run_engine
from repro.generators.netlists import clustered_netlist
from repro.io import read_json, write_json
from repro.portfolio import best_partition
from repro.server import PartitionService, ServiceClient, ServiceConfig


@pytest.fixture(scope="module")
def netlist_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "netlist.json"
    write_json(clustered_netlist(120, 200, "std_cell", seed=4), path)
    return str(path)


def _cli_cutsize(capsys, argv) -> int:
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return int(next(line for line in lines if line.startswith("cutsize ")).split(":")[1])


@pytest.mark.parametrize(
    "engine, refine",
    [(engine, None) for engine in ALL_ENGINES] + [("kl", "fm"), ("flow", "flow")],
)
def test_cli_partition_prints_the_registry_cut(netlist_file, capsys, engine, refine):
    argv = ["partition", netlist_file, "--algorithm", engine, "--seed", "3", "--starts", "4"]
    if refine is not None:
        argv += ["--refine", refine]
    bp, _ = run_engine(engine, read_json(netlist_file), seed=3, starts=4, refine=refine)
    assert _cli_cutsize(capsys, argv) == bp.cutsize


def test_portfolio_scoreboard_matches_the_registry(netlist_file):
    h = read_json(netlist_file)
    result = best_partition(h, methods=ALL_ENGINES, num_starts=4, seed=5)
    # The portfolio draws one engine seed per method, in order.
    rng = random.Random(5)
    for entry in result.entries:
        bp, extras = run_engine(entry.method, h, seed=rng.randrange(2**31), starts=4)
        assert entry.cutsize == bp.cutsize, entry.method
        assert entry.weighted_cutsize == bp.weighted_cutsize
        assert entry.degraded == extras["degraded"]


@pytest.mark.parametrize("tolerance", [0.02, 0.1, 0.4])
def test_registry_fm_and_sa_honour_balance_tolerance(netlist_file, tolerance):
    h = read_json(netlist_file)
    fm, _ = run_engine("fm", h, seed=2, starts=1, balance_tolerance=tolerance)
    direct = fiduccia_mattheyses(h, balance_tolerance=tolerance, seed=2).bipartition
    assert (fm.cutsize, fm.left) == (direct.cutsize, direct.left)
    sa, _ = run_engine("sa", h, seed=2, starts=1, balance_tolerance=tolerance)
    direct = simulated_annealing(
        h, schedule=BOUNDED_SA_SCHEDULE, balance_tolerance=tolerance, seed=2
    ).bipartition
    assert (sa.cutsize, sa.left) == (direct.cutsize, direct.left)


@pytest.fixture(scope="module")
def client():
    svc = PartitionService(ServiceConfig(port=0, workers=1)).start()
    try:
        client = ServiceClient(url=svc.url, timeout=120.0)
        client.wait_ready(timeout=10.0)
        yield client
    finally:
        svc.stop()
        obs.disable()
        obs.registry().clear()


@pytest.mark.parametrize(
    "placer, partitioner",
    [(placer, "hybrid") for placer in PLACERS] + [("mincut", "fm"), ("mincut", "algorithm1")],
)
def test_cli_place_and_daemon_place_agree(tmp_path, client, placer, partitioner):
    h = clustered_netlist(40, 70, "std_cell", seed=4)
    path = tmp_path / "small.json"
    write_json(h, path)
    out = tmp_path / "placed.json"
    argv = [
        "place", str(path), "--placer", placer, "--partitioner", partitioner,
        "--seed", "2", "--assignment", str(out),
    ]
    assert main(argv) == 0
    served = client.place(
        h, placer=placer, settings={"seed": 2, "partitioner": partitioner}
    )["result"]
    local = json.loads(out.read_text(encoding="utf-8"))
    assert {str(v): slot for v, slot in served["positions"]} == local
