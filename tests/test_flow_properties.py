"""Property, metamorphic, and fault-injection suite for the flow stack.

Covers the contracts the oracle suite cannot: max-flow/min-cut duality
on weighted instances, invariance under module relabeling and signal
reordering, same-seed determinism, deadline degradation semantics, the
engine-registry validation surface (every front end validates against
the registry's own name tuples), the ``flow`` engine as Algorithm I plus
the ``flow`` refiner, the service settings fingerprint, and a chaos case
killing a worker inside ``flow.solve``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench import BenchError, run_bench
from repro.cli import build_parser
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.engines import (
    ALL_ENGINES,
    PLACERS,
    REFINERS,
    EngineError,
    apply_refine,
    run_engine,
)
from repro.flow import lawler_network, max_flow, refine_flow, solve_corridor
from repro.io.json_io import hypergraph_to_payload
from repro.placement.mincut_placement import PARTITIONERS
from repro.portfolio import best_partition
from repro.runtime import Deadline, DeadlineExpired, faults
from repro.server import protocol
from repro.server.protocol import RequestError, parse_request
from tests.conftest import hypergraphs

_EPS = 1e-9


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.configure(None)
    obs.disable()
    obs.registry().clear()
    yield
    faults.configure(None)
    obs.disable()
    obs.registry().clear()


def _weighted_instance(seed: int) -> Hypergraph:
    """Weights are multiples of 0.5, so all flow sums are float-exact."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    h = Hypergraph(vertices=range(n))
    for v in range(n):
        h.set_vertex_weight(v, rng.choice([0.5, 1.0, 2.0, 3.0]))
    for _ in range(rng.randint(n, 2 * n)):
        size = rng.randint(2, min(4, n))
        h.add_edge(rng.sample(range(n), size), weight=rng.choice([0.5, 1.0, 1.5, 2.0]))
    return h


def _global_min_cut_value(h: Hypergraph) -> float:
    verts = list(h.vertices)
    s = verts[0]
    return min(
        solve_corridor(h, [s], [t], [v for v in verts if v != s and v != t]).cut_weight
        for t in verts[1:]
    )


class TestDuality:
    """Max-flow value == weight of the cut the solver returns."""

    @pytest.mark.parametrize("seed", range(16))
    def test_flow_value_equals_returned_cut_weight(self, seed):
        h = _weighted_instance(seed)
        verts = list(h.vertices)
        sol = solve_corridor(h, [verts[0]], [verts[-1]], verts[1:-1])
        realized = Bipartition(h, sol.left, sol.right)
        assert realized.weighted_cutsize == sol.flow_value + sol.base_cut_weight
        assert realized.weighted_cutsize == sol.cut_weight

    @pytest.mark.parametrize("seed", range(16))
    def test_max_flow_lower_bounds_every_corridor_cut(self, seed):
        """Weak duality: no corridor assignment can beat the flow value."""
        h = _weighted_instance(seed)
        verts = list(h.vertices)
        sol = solve_corridor(h, [verts[0]], [verts[-1]], verts[1:-1])
        rng = random.Random(seed + 99)
        for _ in range(25):
            left = {verts[0]} | {v for v in verts[1:-1] if rng.random() < 0.5}
            right = set(verts) - left
            cut = Bipartition(h, left, right).weighted_cutsize
            assert cut >= sol.cut_weight - _EPS


class TestMetamorphic:
    """The min-cut value is a graph invariant: renaming modules or
    re-adding signals in a different order must not move it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_invariant_under_label_permutation(self, seed):
        h = _weighted_instance(seed)
        rng = random.Random(seed + 500)
        verts = list(h.vertices)
        perm = list(range(len(verts)))
        rng.shuffle(perm)
        relabel = {v: f"m{perm[i]}" for i, v in enumerate(verts)}

        h2 = Hypergraph()
        for v in verts:
            h2.add_vertex(relabel[v], weight=h.vertex_weight(v))
        for e in h.edge_names:
            h2.add_edge(
                [relabel[v] for v in h.edge_members(e)], weight=h.edge_weight(e)
            )
        assert _global_min_cut_value(h2) == _global_min_cut_value(h)

    @pytest.mark.parametrize("seed", range(12))
    def test_invariant_under_signal_order_shuffle(self, seed):
        h = _weighted_instance(seed)
        rng = random.Random(seed + 700)
        edges = list(h.edge_names)
        rng.shuffle(edges)

        h2 = Hypergraph()
        for v in h.vertices:
            h2.add_vertex(v, weight=h.vertex_weight(v))
        for e in edges:
            h2.add_edge(h.edge_members(e), weight=h.edge_weight(e))
        assert _global_min_cut_value(h2) == _global_min_cut_value(h)


class TestDeterminism:
    """Same inputs, same process -> byte-identical answers."""

    @pytest.mark.parametrize("seed", range(8))
    def test_solve_corridor_is_deterministic(self, seed):
        h = _weighted_instance(seed)
        verts = list(h.vertices)
        first = solve_corridor(h, [verts[0]], [verts[-1]], verts[1:-1])
        second = solve_corridor(h, [verts[0]], [verts[-1]], verts[1:-1])
        assert first.left == second.left
        assert first.right == second.right
        assert first.flow_value == second.flow_value

    @pytest.mark.parametrize("seed", range(8))
    def test_refine_flow_is_deterministic(self, seed):
        h = _weighted_instance(seed)
        verts = list(h.vertices)
        part = Bipartition(h, verts[: len(verts) // 2], verts[len(verts) // 2 :])
        a = refine_flow(h, part, corridor_radius=2, balance_tolerance=0.1)
        b = refine_flow(h, part, corridor_radius=2, balance_tolerance=0.1)
        assert frozenset(a.bipartition.left) == frozenset(b.bipartition.left)
        assert a.cut_trajectory == b.cut_trajectory
        assert a.corridor_sizes == b.corridor_sizes

    def test_flow_engine_same_seed_same_cut(self):
        h = _weighted_instance(3)
        one, _ = run_engine("flow", h, seed=42, starts=4)
        two, _ = run_engine("flow", h, seed=42, starts=4)
        assert one.cutsize == two.cutsize
        assert frozenset(one.left) == frozenset(two.left)


class TestDeadlineDegradation:
    """An expired deadline degrades, never corrupts."""

    def test_refine_flow_returns_untouched_input_flagged_degraded(self):
        h = _weighted_instance(1)
        verts = list(h.vertices)
        part = Bipartition(h, verts[: len(verts) // 2], verts[len(verts) // 2 :])
        res = refine_flow(h, part, deadline=Deadline.after(0.0))
        assert res.degraded
        assert res.degrade_reason
        assert frozenset(res.bipartition.left) == frozenset(part.left)
        assert frozenset(res.bipartition.right) == frozenset(part.right)
        assert res.accepted_rounds == 0

    def test_max_flow_raises_typed_expiry(self):
        h = _weighted_instance(2)
        verts = list(h.vertices)
        net = lawler_network(h, [verts[0]], [verts[-1]], verts[1:-1])
        with pytest.raises(DeadlineExpired):
            max_flow(net, deadline=Deadline.after(0.0))

    def test_engine_flow_with_expired_deadline_is_degraded_not_broken(self):
        h = _weighted_instance(4)
        bp, extras = run_engine("flow", h, seed=0, starts=2, deadline=Deadline.after(0.0))
        assert extras["degraded"]
        assert bp.cutsize >= 0  # still a valid bipartition, best-effort


def _choices(command: str, option: str):
    """The argparse ``choices`` object behind ``command option``."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[command]
    return next(a for a in sub._actions if option in a.option_strings).choices


class TestEngineRegistry:
    """One name tuple per decision, and the typed-validation surface
    around engine and refiner names."""

    def test_front_ends_share_the_registry_tuples(self):
        # The CLI choices, the bench default sweep and the service
        # protocol hold the registry's own tuples, not copies of them.
        assert _choices("partition", "--algorithm") is ALL_ENGINES
        assert _choices("client", "--engine") is ALL_ENGINES
        for command in ("partition", "portfolio", "bench", "client"):
            assert _choices(command, "--refine") is REFINERS
        assert _choices("place", "--placer") is PLACERS
        assert _choices("client", "--placer") is PLACERS
        assert _choices("place", "--partitioner") is PARTITIONERS
        assert inspect.signature(run_bench).parameters["engines"].default is ALL_ENGINES
        assert protocol.ALL_ENGINES is ALL_ENGINES
        assert protocol.PLACERS is PLACERS
        assert protocol.PARTITIONERS is PARTITIONERS

    def test_bench_rejects_unknown_engine_with_typed_error(self):
        with pytest.raises(BenchError, match="unknown engine"):
            run_bench("x", engines=("algorithm1", "flwo"), repeats=1)

    def test_bench_rejects_unknown_refiner_with_typed_error(self):
        with pytest.raises(BenchError, match="refiner"):
            run_bench("x", engines=("algorithm1",), repeats=1, refine="flwo")

    def test_run_engine_rejects_unknown_engine(self):
        h = _weighted_instance(0)
        with pytest.raises(EngineError):
            run_engine("flwo", h, seed=0, starts=1)

    def test_run_engine_rejects_unknown_refiner(self):
        h = _weighted_instance(0)
        with pytest.raises(EngineError):
            run_engine("algorithm1", h, seed=0, starts=1, refine="flwo")

    def test_portfolio_rejects_unknown_refiner(self):
        h = _weighted_instance(0)
        with pytest.raises(ValueError, match="refiner"):
            best_partition(h, methods=("algorithm1",), refine="flwo")

    @given(hypergraphs(min_vertices=4, max_vertices=10))
    @settings(max_examples=15, deadline=None)
    def test_refined_engine_never_worse_than_unrefined(self, h):
        plain, _ = run_engine("algorithm1", h, seed=5, starts=3)
        refined, extras = run_engine("algorithm1", h, seed=5, starts=3, refine="flow")
        assert refined.cutsize <= plain.cutsize
        assert extras["refine"] == "flow"


class TestFlowEngineIsARefinerPass:
    """``flow`` is Algorithm I followed by the ``flow`` refiner, on the
    path ``refine=`` takes: one cut, one extras schema."""

    @staticmethod
    def _without_timings(extras: dict) -> dict:
        return {k: v for k, v in extras.items() if k != "phases"}

    @pytest.mark.parametrize("seed", range(6))
    def test_flow_engine_is_algorithm1_refined_by_flow(self, seed):
        h = _weighted_instance(seed)
        engine_bp, engine_extras = run_engine("flow", h, seed=seed, starts=3)
        piped_bp, piped_extras = run_engine(
            "algorithm1", h, seed=seed, starts=3, refine="flow"
        )
        assert frozenset(engine_bp.left) == frozenset(piped_bp.left)
        assert self._without_timings(engine_extras) == self._without_timings(piped_extras)
        seed_bp, _ = run_engine("algorithm1", h, seed=seed, starts=3)
        assert engine_extras["seed_cutsize"] == seed_bp.cutsize
        assert engine_extras["refine"] == "flow"

    def test_refine_flow_on_the_flow_engine_runs_two_passes(self, monkeypatch):
        import repro.flow

        calls = []
        real = repro.flow.refine_flow

        def counting(h, bipartition, **kwargs):
            calls.append(bipartition)
            return real(h, bipartition, **kwargs)

        monkeypatch.setattr(repro.flow, "refine_flow", counting)
        h = _weighted_instance(7)
        run_engine("flow", h, seed=1, starts=3)
        assert len(calls) == 1
        bp, extras = run_engine("flow", h, seed=1, starts=3, refine="flow")
        assert len(calls) == 3
        first, second = calls[1:]
        assert extras["seed_cutsize"] == first.cutsize  # the Algorithm I cut
        assert bp.weighted_cutsize <= second.weighted_cutsize <= first.weighted_cutsize

    def test_apply_refine_keeps_the_first_seed_cut(self):
        h = _weighted_instance(8)
        verts = list(h.vertices)
        part = Bipartition(h, verts[: len(verts) // 2], verts[len(verts) // 2 :])
        once, extras = apply_refine("fm", h, part, seed=0)
        assert extras["seed_cutsize"] == part.cutsize
        assert extras["degraded"] is False
        twice, extras = apply_refine("flow", h, once, seed=0, extras=extras)
        assert extras["seed_cutsize"] == part.cutsize
        assert twice.weighted_cutsize <= once.weighted_cutsize <= part.weighted_cutsize


class TestServiceFingerprint:
    """``refine`` is part of the partition settings fingerprint, so a
    refined result can never be served from an unrefined cache entry."""

    def _raw(self, settings_dict):
        h = _weighted_instance(5)
        body = {
            "op": "partition",
            "engine": "algorithm1",
            "hypergraph": hypergraph_to_payload(h),
            "settings": settings_dict,
        }
        return json.dumps(body).encode()

    def test_refine_defaults_to_none_and_normalizes(self):
        request = parse_request(self._raw({"seed": 0}))
        assert request.settings["refine"] is None
        refined = parse_request(self._raw({"seed": 0, "refine": "flow"}))
        assert refined.settings["refine"] == "flow"

    def test_refine_changes_the_fingerprint(self):
        plain = parse_request(self._raw({"seed": 0}))
        refined = parse_request(self._raw({"seed": 0, "refine": "flow"}))
        assert plain.fingerprint != refined.fingerprint
        assert plain.cache_key != refined.cache_key

    def test_unknown_refiner_is_a_typed_request_error(self):
        with pytest.raises(RequestError, match="refine"):
            parse_request(self._raw({"seed": 0, "refine": "flwo"}))

    def test_flow_engine_accepted_by_protocol(self):
        h = _weighted_instance(5)
        body = {
            "op": "partition",
            "engine": "flow",
            "hypergraph": hypergraph_to_payload(h),
            "settings": {"seed": 1},
        }
        request = parse_request(json.dumps(body).encode())
        assert request.engine == "flow"


@pytest.mark.chaos
class TestFlowChaos:
    """A worker killed inside ``flow.solve`` becomes a typed failed
    entry; the daemon survives and keeps serving other engines."""

    def test_kill_inside_flow_solve_daemon_survives(self):
        from repro.server import (
            PartitionService,
            ServiceClient,
            ServiceConfig,
            ServiceResponseError,
        )

        h = Hypergraph(vertices=range(12))
        for i in range(11):
            h.add_edge([i, i + 1])
        config = ServiceConfig(port=0, workers=2)
        svc = PartitionService(config).start()
        client = ServiceClient(url=svc.url, timeout=120.0)
        client.wait_ready(timeout=10.0)
        # A 0.5 tolerance keeps the corridor weight budgets above one
        # module, so the refinement pass actually enters ``flow.solve``
        # (the default 0.1 budget on a 12-module chain carves nothing).
        flow_settings = {"balance_tolerance": 0.5}
        try:
            # Healthy baseline through the flow engine.
            ok = client.partition(
                h, engine="flow", settings={"seed": 0, **flow_settings}
            )
            assert ok["result"]["cutsize"] >= 0

            # Kill the forked worker exactly at the flow.solve site.
            faults.configure("flow.solve=kill:1", seed=29)
            with pytest.raises(ServiceResponseError) as excinfo:
                client.partition(
                    h, engine="flow", settings={"seed": 1, **flow_settings}
                )
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "WorkerCrashed"
            assert client.healthz()["status"] == "ok"

            # Engines that never enter flow.solve are unaffected.
            other = client.partition(h, engine="fm", settings={"seed": 2})
            assert other["result"]["cutsize"] >= 0

            # Faults off: flow service resumes (fresh seed avoids both
            # the result cache and the crash-quarantine key).
            faults.configure(None)
            again = client.partition(
                h, engine="flow", settings={"seed": 3, **flow_settings}
            )
            assert again["result"]["cutsize"] >= 0
        finally:
            svc.stop()
