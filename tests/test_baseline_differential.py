"""The index-space move-based engines against their label-space references.

FM, KL, SA and the random cut run on :class:`CutState` over integer ids;
tests/reference_baselines.py keeps the label-space engines they
replaced.  Every observable of a run must match: both sides, the cut,
the history, the iteration and evaluation counts.  The one intended
difference, FM's pick among labels that share a ``repr`` (vertex order
now, set iteration order before), cannot arise here: the labels are
distinct ints, strs and tuples, whose ``repr`` are distinct too.

The index state's ``weighted_cutsize`` is an exact sum, so it must equal
the result's ``Bipartition.weighted_cutsize`` bit for bit.
"""

from __future__ import annotations

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.simulated_annealing import AnnealingSchedule
from repro.core.hypergraph import Hypergraph
from repro.engines import BOUNDED_SA_SCHEDULE
from repro.generators.netlists import clustered_netlist
from repro.generators.random_hypergraph import random_hypergraph
from tests import reference_baselines as ref
from tests.conftest import labeled_hypergraphs, starts

ENGINES = {
    "fm": ("repro.baselines.fiduccia_mattheyses", "fiduccia_mattheyses",
           ref.reference_fiduccia_mattheyses),
    "kl": ("repro.baselines.kernighan_lin", "kernighan_lin", ref.reference_kernighan_lin),
    "sa": ("repro.baselines.simulated_annealing", "simulated_annealing",
           ref.reference_simulated_annealing),
    "random": ("repro.baselines.random_cut", "random_cut", ref.reference_random_cut),
}

#: A short schedule, so a hypothesis example anneals in milliseconds.
SHORT_SCHEDULE = AnnealingSchedule(alpha=0.8, max_total_moves=1500, frozen_after=2)


def assert_same_run(engine: str, h: Hypergraph, **kwargs) -> None:
    module_name, name, reference = ENGINES[engine]
    module = importlib.import_module(module_name)
    states = []
    if hasattr(module, "initial_state"):
        original = module.initial_state

        def recording(*args, **kw):
            states.append(original(*args, **kw))
            return states[-1]

        with mock.patch.object(module, "initial_state", recording):
            new = getattr(module, name)(h, **kwargs)
    else:
        new = getattr(module, name)(h, **kwargs)
    old = reference(h, **kwargs)
    assert new.bipartition.left == old.bipartition.left
    assert new.bipartition.right == old.bipartition.right
    assert new.cutsize == old.cutsize
    assert new.history == old.history
    assert new.iterations == old.iterations
    assert new.evaluations == old.evaluations
    for state in states:
        assert state.weighted_cutsize == new.bipartition.weighted_cutsize


@st.composite
def fm_cases(draw):
    """A hypergraph, a start (sometimes with fixed vertices) and a tolerance."""
    h = draw(labeled_hypergraphs())
    kwargs = draw(starts(h))
    kwargs["balance_tolerance"] = draw(st.sampled_from([0.0, 0.1, 0.5]))
    if "initial" in kwargs and draw(st.booleans()):
        kwargs["fixed"] = set(draw(st.lists(st.sampled_from(h.vertices), max_size=4)))
    return h, kwargs


@st.composite
def sa_cases(draw):
    h = draw(labeled_hypergraphs(max_vertices=10, max_edges=14))
    kwargs = draw(starts(h))
    kwargs["balance_tolerance"] = draw(st.sampled_from([0.0, 0.1, 0.5]))
    kwargs["imbalance_penalty"] = draw(st.sampled_from([0.0, 1.0, 2.5]))
    return h, kwargs


class TestFM:
    @settings(max_examples=300, deadline=None)
    @given(fm_cases())
    def test_same_run_on_small_hypergraphs(self, case):
        h, kwargs = case
        assert_same_run("fm", h, **kwargs)


class TestSA:
    @settings(max_examples=120, deadline=None)
    @given(sa_cases())
    def test_same_run_on_small_hypergraphs(self, case):
        h, kwargs = case
        assert_same_run("sa", h, schedule=SHORT_SCHEDULE, **kwargs)


class TestRandom:
    @settings(max_examples=150, deadline=None)
    @given(labeled_hypergraphs(), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_same_run_on_small_hypergraphs(self, h, num_starts, seed):
        assert_same_run("random", h, num_starts=num_starts, seed=seed)


#: The engines-1k recipes (1000 modules, 1600 signals) and each engine's
#: settings in the engine registry.
ENGINE_SETTINGS = {
    "fm": {"balance_tolerance": 0.1},
    "kl": {},
    "sa": {"schedule": BOUNDED_SA_SCHEDULE, "balance_tolerance": 0.1},
    "random": {"num_starts": 10},
}


@pytest.fixture(scope="module", params=["random", "std_cell"])
def instance_1k(request):
    if request.param == "random":
        return random_hypergraph(1000, 1600, seed=11, connect=True)
    return clustered_netlist(1000, 1600, technology="std_cell", seed=11)


@pytest.mark.parametrize("engine", sorted(ENGINE_SETTINGS))
def test_same_run_on_engines_1k_recipes(engine, instance_1k):
    assert_same_run(engine, instance_1k, seed=5, **ENGINE_SETTINGS[engine])
