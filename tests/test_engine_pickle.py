"""Every engine answers the same on a hypergraph and on its unpickled copy.

Unpickling a :class:`Hypergraph` rebuilds each edge's member frozenset,
and a rebuilt frozenset can iterate its members in another order than
the one the original was built in.  The daemon's workers run every
engine on unpickled hypergraphs, so no engine may depend on that order:
each must return the same sides, cutsize and ``degraded`` flag on both.
The instances carry int, str and tuple labels, plus a std-cell netlist,
and each holds edges whose member order the round trip changes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES, run_engine
from repro.generators.netlists import clustered_netlist
from repro.generators.random_hypergraph import random_hypergraph

LABELS = {
    "int": (lambda v: v, lambda e: e),
    "str": (lambda v: f"m{v}", lambda e: f"n{e}"),
    "tuple": (lambda v: ("m", v), lambda e: ("n", e)),
}


def _relabeled(h: Hypergraph, vertex_label, edge_label) -> Hypergraph:
    out = Hypergraph(vertices=[vertex_label(v) for v in h.vertices])
    for name in h.edge_names:
        out.add_edge(
            [vertex_label(v) for v in h.edge_members(name)],
            name=edge_label(name),
            weight=h.edge_weight(name),
        )
    return out


@pytest.fixture(scope="module", params=[*LABELS, "std_cell"])
def instance(request) -> Hypergraph:
    if request.param == "std_cell":
        return clustered_netlist(200, 320, "std_cell", seed=4)
    base = random_hypergraph(150, 240, seed=3, connect=True)
    return _relabeled(base, *LABELS[request.param])


def test_the_round_trip_reorders_some_edge_members(instance):
    back = pickle.loads(pickle.dumps(instance))
    assert any(
        list(instance.edge_members(name)) != list(back.edge_members(name))
        for name in instance.edge_names
    )


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engine_answers_the_same_on_the_unpickled_copy(engine, instance):
    back = pickle.loads(pickle.dumps(instance))
    bp, extras = run_engine(engine, instance, seed=7, starts=4)
    bp_back, extras_back = run_engine(engine, back, seed=7, starts=4)
    assert bp_back.left == bp.left
    assert bp_back.right == bp.right
    assert bp_back.cutsize == bp.cutsize
    assert extras_back["degraded"] == extras["degraded"]
