"""Algorithm I's index-space starts against the label-space path they replaced.

``tests/reference_start.py`` keeps the earlier per-start path verbatim:
label-set cuts, a fresh ``Graph`` for ``G'``, ``repr``-keyed heaps and a
``Bipartition`` per start.  With integer or dyadic weights (whose sums
are exact in any order) the index path must take the same steps: every
start record, every completion order and both sides of every answer are
compared, for int, str and tuple labels, both deterministic Complete-Cut
variants with and without the engineer's rule, both double-BFS modes,
double sweep, size thresholds, disconnected duals (attached components
and packing), isolated seeds, and sequential and parallel runs.  The
reference runs both of its ``_use_csr()`` twins (its own ``USE_CSR``
switch), on its own filter, dual build and component check.

``random_min_degree`` is left out of the comparison: the earlier path
drew its candidates in frozenset order, which for str labels followed
``PYTHONHASHSEED``.  It now draws them in G-slot order, so the test
instead checks that a run repeats exactly under two hash seeds and that
every pick is a live minimum-degree node.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import algorithm1, run_single_start
from repro.core.boundary import boundary_graph
from repro.core.dual_cut import double_bfs_cut, random_longest_bfs_path
from repro.core.filtering import filter_large_edges
from repro.core.hypergraph import Hypergraph
from repro.core.intersection import intersection_graph
from tests import reference_start as ref
from tests.conftest import block_hypergraphs as instances

# The package re-exports the function under the module's name.
complete_cut_module = importlib.import_module("repro.core.complete_cut")

SRC = Path(__file__).resolve().parents[1] / "src"

options = st.fixed_dictionaries(
    {
        "num_starts": st.integers(1, 4),
        "seed": st.integers(0, 2**31 - 1),
        "edge_size_threshold": st.sampled_from([None, 3, 4, 10]),
        "variant": st.sampled_from(["min_degree", "min_loser_weight"]),
        "weighted_balance": st.booleans(),
        "double_sweep": st.booleans(),
        "balance_tolerance": st.sampled_from([None, 0.1, 0.4]),
        "bfs_mode": st.sampled_from(["balanced", "level"]),
        "objective": st.sampled_from(["edges", "weight"]),
    }
)


def csr_twin(use_csr: bool):
    """Pick one of the reference's two twins (and its component walk)."""
    return mock.patch.object(ref, "USE_CSR", use_csr)


def assert_same_run(h: Hypergraph, opts: dict, parallel: int | None) -> None:
    result = algorithm1(h, parallel=parallel, **opts)
    for use_csr in (False, True):
        with csr_twin(use_csr):
            best, records, _ = ref.reference_algorithm1(h, parallel=parallel, **opts)
        assert list(result.starts) == records
        assert result.bipartition.left == best.left
        assert result.bipartition.right == best.right


@given(instances(), options, st.sampled_from([None, 1]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_matches_reference(h, opts, parallel):
    assert_same_run(h, opts, parallel)


@given(instances(), options)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_run_matches_reference(h, opts):
    opts["num_starts"] = max(opts["num_starts"], 2)
    assert_same_run(h, opts, parallel=2)


def assert_same_start(new, old) -> None:
    for name in ("left", "right", "boundary_left", "boundary_right", "seed_u", "seed_v"):
        assert getattr(new.cut, name) == getattr(old.cut, name)
    assert new.partial.placed_left == old.partial.placed_left
    assert new.partial.placed_right == old.partial.placed_right
    assert new.partial.free == old.partial.free
    assert new.boundary.left == old.boundary.left
    assert new.boundary.right == old.boundary.right
    assert {frozenset(e) for e in new.boundary.graph.edges()} == {
        frozenset(e) for e in old.boundary.graph.edges()
    }
    for name in ("winners_left", "winners_right", "losers", "order"):
        assert getattr(new.completion, name) == getattr(old.completion, name)
    assert new.bipartition.left == old.bipartition.left
    assert new.bipartition.right == old.bipartition.right
    assert new.cutsize == old.bipartition.cutsize
    assert new.weighted_cutsize == old.bipartition.weighted_cutsize
    assert new.weight_imbalance == old.bipartition.weight_imbalance
    assert new.bfs_depth == old.bfs_depth


@given(instances(), options, st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_starts_match_reference(h, opts, data):
    threshold = opts["edge_size_threshold"]
    working = h if threshold is None else filter_large_edges(h, threshold)[0]
    old_working = h if threshold is None else ref.filter_large_edges(h, threshold)[0]
    if working.num_edges == 0:
        return
    ig = intersection_graph(working)
    # Seeds include isolated dual nodes: the u == v one-vs-rest fallback.
    start = data.draw(st.sampled_from([None, *ig.graph.nodes]))
    kwargs = {
        "start_node": start,
        "variant": opts["variant"],
        "weighted_balance": opts["weighted_balance"],
        "double_sweep": opts["double_sweep"],
        "bfs_mode": opts["bfs_mode"],
    }
    new_rng = random.Random(opts["seed"])
    new = run_single_start(ig, h, new_rng, **kwargs)
    for use_csr in (False, True):
        old_rng = random.Random(opts["seed"])
        with csr_twin(use_csr):
            old = ref.run_single_start(ref.intersection_graph(old_working), h, old_rng, **kwargs)
        assert_same_start(new, old)
        assert new_rng.getstate() == old_rng.getstate()


def replay_random_min_degree(bg, completion) -> None:
    """Every pick must be a live node of minimum live degree."""
    graph = bg.graph
    alive = set(graph.nodes)
    for winner in completion.order:
        degree = {n: sum(1 for m in graph.neighbors_view(n) if m in alive) for n in alive}
        assert winner in alive
        assert degree[winner] == min(degree.values())
        alive -= {winner, *graph.neighbors_view(winner)}
    assert not alive


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_random_min_degree_picks_live_minimum_degree_nodes(h, seed):
    ig = intersection_graph(h)
    g = ig.graph
    rng = random.Random(seed)
    u, v, _ = random_longest_bfs_path(g, rng)
    if u == v:
        return
    bg = boundary_graph(g, double_bfs_cut(g, u, v, rng))
    completion = complete_cut_module.complete_cut(bg, variant="random_min_degree", rng=rng)
    replay_random_min_degree(bg, completion)


RANDOM_MIN_DEGREE_RUN = """
from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.generators.netlists import clustered_netlist

for seed in range(3):
    base = clustered_netlist(400, 640, technology="std_cell", seed=seed)
    h = Hypergraph()
    for v in base.vertices:
        h.add_vertex(f"m{v}", base.vertex_weight(v))
    for name, members in base.iter_edges():
        h.add_edge([f"m{v}" for v in members], name=f"n{name}")
    result = algorithm1(h, num_starts=5, seed=seed, variant="random_min_degree")
    print(result.starts)
    print(sorted(result.bipartition.left))
"""


def test_random_min_degree_run_does_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", RANDOM_MIN_DEGREE_RUN],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
