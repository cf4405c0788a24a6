"""Frozen hypergraphs: the mutation guard, and Algorithm I's kept preparation.

``Hypergraph.freeze()`` refuses every in-place mutation with a typed
``HypergraphError``; a frozen hypergraph keeps Algorithm I's
seed-independent preparation (filtered hypergraph, dual, components)
per ``edge_size_threshold``.  Covered:

* every mutator raises on a frozen hypergraph and leaves it unchanged;
  ``copy()`` is equal and unfrozen; freezing changes neither ``==`` nor
  the digest; a frozen hypergraph pickles to the same bytes before and
  after an Algorithm I run, and the kept preparation is not pickled;
* parity: ``algorithm1`` and ``run_engine("flow")``, twice each on a
  frozen hypergraph, give what they give on an unfrozen copy (sides,
  start records, counters, extras; not timings) across thresholds,
  ``parallel``, ``weighted_balance``, the component-packing return and
  a journaled run with its resume;
* the second run reuses the kept dual (no filter, no dualize), and
  threads running on one frozen hypergraph get the sequential answers.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import threading
from unittest import mock

import pytest

from repro.core.algorithm1 import algorithm1, kept_duals
from repro.core.digest import hypergraph_digest
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.engines import run_engine
from repro.generators import clustered_netlist, random_hypergraph

# The module, not the function repro.core re-exports under its name.
algorithm1_module = importlib.import_module("repro.core.algorithm1")


def _weighted() -> Hypergraph:
    """A connected hypergraph with unequal weights and edges of 2-9 pins."""
    h = random_hypergraph(90, 140, max_vertex_degree=4, max_edge_size=9, seed=5, connect=True)
    for k, v in enumerate(h.vertices):
        h.set_vertex_weight(v, 1.0 + (k % 4))
    return h


def _disconnected() -> Hypergraph:
    """Four vertex-disjoint blocks: a dual that takes the component-packing return."""
    edges = {}
    for block in range(4):
        base = 10 * block
        for k in range(4):
            edges[f"b{block}e{k}"] = [base + k, base + k + 1]
    return Hypergraph(edges=edges)


def _result_view(result) -> tuple:
    """Everything of an ``Algorithm1Result`` but its timings."""
    bp = result.bipartition
    return (
        bp.left, bp.right, result.ignored_edges, result.starts, result.counters,
        result.degraded, result.degrade_reason,
    )


def _frozen_copy(h: Hypergraph) -> Hypergraph:
    return pickle.loads(pickle.dumps(h)).freeze()


# ----------------------------------------------------------------------
# The freeze contract
# ----------------------------------------------------------------------

_MUTATIONS = [
    ("add_vertex", lambda h: h.add_vertex("new")),
    ("add_vertex (re-weight)", lambda h: h.add_vertex(1, weight=9.0)),
    ("add_edge", lambda h: h.add_edge([1, 2], name="fresh")),
    ("remove_edge", lambda h: h.remove_edge("A")),
    ("remove_vertex", lambda h: h.remove_vertex(3)),
    ("set_vertex_weight", lambda h: h.set_vertex_weight(2, 7.0)),
]


def _figure1() -> Hypergraph:
    h = Hypergraph(
        edges={"A": [1, 2, 3], "B": [3, 4], "C": [4, 5, 6], "D": [6, 7], "E": [7, 8]}
    )
    h.set_vertex_weight(5, 2.5)
    return h


class TestFreezeContract:
    @pytest.mark.parametrize("name,mutate", _MUTATIONS, ids=[m[0] for m in _MUTATIONS])
    def test_every_mutator_refuses_and_changes_nothing(self, name, mutate):
        h = _figure1().freeze()
        before = pickle.dumps(h)
        with pytest.raises(HypergraphError, match="frozen"):
            mutate(h)
        assert pickle.dumps(h) == before
        assert h == _figure1() and h.vertices == _figure1().vertices

    def test_unfrozen_hypergraphs_still_mutate(self):
        for _, mutate in _MUTATIONS:
            mutate(_figure1())

    def test_copy_is_equal_and_unfrozen(self):
        h = _figure1().freeze()
        c = h.copy()
        assert c == h and not c.frozen and h.frozen
        c.add_vertex("more")
        assert "more" not in h

    def test_freezing_changes_neither_equality_nor_digest(self):
        plain, frozen = _figure1(), _figure1().freeze()
        assert plain == frozen and frozen == plain
        assert hypergraph_digest(frozen) == hypergraph_digest(plain)
        assert frozen.freeze() is frozen

    def test_pickle_is_the_same_before_and_after_a_run(self):
        h = _weighted().freeze()
        before = pickle.dumps(h, pickle.HIGHEST_PROTOCOL)
        algorithm1(h, num_starts=3, seed=1)
        assert kept_duals(h)
        assert pickle.dumps(h, pickle.HIGHEST_PROTOCOL) == before
        back = pickle.loads(before)
        assert back == h and back.frozen and kept_duals(back) == []

    def test_an_unfrozen_hypergraph_keeps_nothing_and_pickles_as_before(self):
        h = _weighted()
        before = pickle.dumps(h)
        algorithm1(h, num_starts=2, seed=1)
        assert h.kept() == {} and kept_duals(h) == []
        assert pickle.dumps(h) == before
        assert "_derived" not in pickle.loads(before).__dict__

    def test_derived_keeps_only_a_finished_value(self):
        h = _figure1().freeze()

        def failing():
            raise RuntimeError("half built")

        with pytest.raises(RuntimeError):
            h.derived("k", failing)
        assert h.kept() == {}
        assert h.derived("k", lambda: 1) == 1
        assert h.derived("k", lambda: 2) == 1


# ----------------------------------------------------------------------
# Parity with unfrozen runs
# ----------------------------------------------------------------------

_CASES = {
    "weighted": _weighted,
    "netlist": lambda: clustered_netlist(120, 190, technology="std_cell", seed=3),
    "disconnected": _disconnected,
}


class TestParity:
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("threshold", [None, 2, 10])
    @pytest.mark.parametrize("parallel", [None, 1, 2])
    def test_algorithm1_matches_an_unfrozen_copy(self, case, threshold, parallel):
        h = _CASES[case]()
        kwargs = dict(num_starts=4, seed=11, edge_size_threshold=threshold, parallel=parallel)
        expected = _result_view(algorithm1(h.copy(), **kwargs))
        frozen = _frozen_copy(h)
        for _ in range(2):
            assert _result_view(algorithm1(frozen, **kwargs)) == expected
        assert len(kept_duals(frozen)) == 1

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_weighted_balance_matches(self, case):
        h = _CASES[case]()
        kwargs = dict(num_starts=3, seed=2, weighted_balance=True, balance_tolerance=0.1)
        expected = _result_view(algorithm1(h.copy(), **kwargs))
        frozen = _frozen_copy(h)
        for _ in range(2):
            assert _result_view(algorithm1(frozen, **kwargs)) == expected

    def test_thresholds_are_kept_apart(self):
        h = _weighted()
        frozen = _frozen_copy(h)
        for threshold in (None, 2, 10, 2, None):
            expected = _result_view(algorithm1(h.copy(), num_starts=2, seed=4, edge_size_threshold=threshold))
            assert _result_view(algorithm1(frozen, num_starts=2, seed=4, edge_size_threshold=threshold)) == expected
        assert len(kept_duals(frozen)) == 3

    def test_component_packing_return_matches(self):
        h = _disconnected()
        expected = algorithm1(h.copy(), num_starts=3, seed=0)
        assert expected.cutsize == 0 and expected.starts[0].seed_u is None
        frozen = _frozen_copy(h)
        for _ in range(2):
            assert _result_view(algorithm1(frozen, num_starts=3, seed=0)) == _result_view(expected)

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_flow_matches(self, case):
        h = _CASES[case]()

        def view(run):
            bipartition, extras = run
            return bipartition.left, bipartition.right, {k: v for k, v in extras.items() if k != "phases"}

        expected = view(run_engine("flow", h.copy(), seed=3, starts=3))
        frozen = _frozen_copy(h)
        for _ in range(2):
            assert view(run_engine("flow", frozen, seed=3, starts=3)) == expected

    def test_journaled_run_and_its_resume_match(self, tmp_path):
        h = _weighted()
        kwargs = dict(num_starts=4, seed=8, parallel=1)
        plain = algorithm1(h.copy(), journal_path=tmp_path / "plain.jsonl", **kwargs)
        frozen_h = _frozen_copy(h)
        frozen = algorithm1(frozen_h, journal_path=tmp_path / "frozen.jsonl", **kwargs)
        assert _result_view(frozen) == _result_view(plain)
        resumed_plain = algorithm1(h.copy(), resume_path=tmp_path / "plain.jsonl", **kwargs)
        resumed = algorithm1(frozen_h, resume_path=tmp_path / "frozen.jsonl", **kwargs)
        assert _result_view(resumed) == _result_view(resumed_plain) == _result_view(plain)

    def test_a_second_run_builds_no_dual(self):
        h = _weighted().freeze()
        first = algorithm1(h, num_starts=2, seed=1)
        with mock.patch.object(
            algorithm1_module, "intersection_graph", side_effect=AssertionError("rebuilt")
        ), mock.patch.object(
            algorithm1_module, "filter_large_edges", side_effect=AssertionError("refiltered")
        ):
            second = algorithm1(h, num_starts=2, seed=1)
        assert second.intersection is first.intersection
        assert second.timings["filter"] == second.timings["dualize"] == 0.0
        assert first.timings["dualize"] > 0.0


# ----------------------------------------------------------------------
# One frozen hypergraph, several threads
# ----------------------------------------------------------------------


class TestThreads:
    def test_threads_get_the_sequential_answers(self):
        h = clustered_netlist(600, 960, technology="std_cell", seed=7)
        seeds = (1, 2, 3)
        expected = {s: _result_view(algorithm1(h.copy(), num_starts=3, seed=s)) for s in seeds}
        frozen = _frozen_copy(h)
        algorithm1(frozen, num_starts=1, seed=0)  # both threads share one kept dual
        failures: list[str] = []

        def run(seed: int) -> None:
            for _ in range(20):
                try:
                    got = _result_view(algorithm1(frozen, num_starts=3, seed=seed, parallel=None))
                except Exception as exc:  # noqa: BLE001 - a thread's error is a failure here
                    failures.append(f"seed {seed} raised {exc!r}")
                    return
                if got != expected[seed]:
                    failures.append(f"seed {seed} differed")

        # Switch threads every few bytecodes, inside the BFS too.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
