"""Algorithm I's per-run setup against the label-space versions it replaced.

``tests/reference_start.py`` keeps the filter, the dual build and the
component check as they ran before they moved onto the hypergraph
index: a per-pin ``restricted_to_edges`` loop, one ``add_clique`` per
module, and label-set components.  The index-built dual must equal the
clique-built one slot for slot, each row listing the clique sets'
members in ascending slot order (the order every BFS and cut follows),
and the packed sides of a disconnected dual must be the ones the
label-space packing chose.  Instances come from
:func:`tests.conftest.block_hypergraphs`: int, str and tuple labels,
one-pin nets, modules in no net, and repeated blocks whose equal weights
reach the ``repr`` tie-break.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import _pack_components
from repro.core.filtering import filter_large_edges
from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.core.intersection import intersection_graph
from tests import reference_start as ref
from tests.conftest import block_hypergraphs

THRESHOLDS = st.sampled_from([None, 3, 4, 10])


def working_pair(h: Hypergraph, threshold: int | None) -> tuple[Hypergraph, Hypergraph]:
    """The filtered hypergraph from ``src`` and from the reference."""
    if threshold is None:
        return h, h
    new, new_ignored = filter_large_edges(h, threshold)
    old, old_ignored = ref.filter_large_edges(h, threshold)
    assert new_ignored == old_ignored
    return new, old


@given(block_hypergraphs(), THRESHOLDS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_filter_matches_reference(h, threshold):
    new, old = working_pair(h, threshold)
    assert new == old
    assert new.edge_names == old.edge_names
    for v in old.vertices:
        assert list(new.incident_edges_view(v)) == list(old.incident_edges_view(v))


@given(block_hypergraphs(), THRESHOLDS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dual_matches_reference(h, threshold):
    new_working, old_working = working_pair(h, threshold)
    new = intersection_graph(new_working).graph
    old = ref.intersection_graph(old_working).graph
    assert new.labels_view() == old.labels_view()
    assert new.weights_view() == old.weights_view()
    assert new.num_edges == old.num_edges
    assert new.row_lists() == [sorted(row) for row in ref.clique_adjacency(old_working)]
    assert new.row_lists() == old.row_lists()
    new_csr, old_csr = new.csr(), old.csr()
    assert new_csr.indptr.tolist() == old_csr.indptr.tolist()
    assert new_csr.indices.tolist() == old_csr.indices.tolist()
    assert new.repr_ranks().tolist() == old.repr_ranks().tolist()
    labels = new.labels_view()
    for use_csr in (False, True):
        # The reference's component walk on both its BFS twins: the set
        # walk and the CSR one.
        with mock.patch.object(ref, "USE_CSR", use_csr):
            components = [{labels[i] for i in c.tolist()} for c in new.component_slots()]
            assert components == ref.connected_components(old)
            assert new.connected_components() == components


@given(block_hypergraphs(), THRESHOLDS, st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_packed_sides_match_reference(h, threshold, seed):
    new_working, old_working = working_pair(h, threshold)
    new = intersection_graph(new_working)
    old = ref.intersection_graph(old_working)
    components = new.graph.component_slots()
    if len(components) < 2:
        return
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    sides = _pack_components(new, components, new_rng)
    packed = new.index.bipartition(h, sides)
    expected = ref._pack_components(
        h, old_working, ref.connected_components(old.graph), old_rng
    )
    assert packed.left == expected.left
    assert packed.right == expected.right
    assert new_rng.getstate() == old_rng.getstate()


def test_equal_weight_blocks_go_by_label_repr():
    # Blocks "b" and "a" weigh the same; "a" (smaller repr) is placed
    # first, on the left, though its component comes second.
    h = Hypergraph(edges={"nb": ["b1", "b2"], "na": ["a1", "a2"]})
    ig = intersection_graph(h)
    sides = _pack_components(ig, ig.graph.component_slots(), random.Random(0))
    packed = ig.index.bipartition(h, sides)
    assert packed.left == {"a1", "a2"}
    assert packed.right == {"b1", "b2"}


def test_restricted_to_edges_reports_the_first_bad_name():
    h = Hypergraph(edges={"A": [1, 2], "B": [2, 3]})
    for names, message in (
        (["A", "A", "Z"], "duplicate edge name 'A'"),
        (["A", "Z", "A"], "no such edge 'Z'"),
        (["B", "Z"], "no such edge 'Z'"),
    ):
        with pytest.raises(HypergraphError, match=message):
            h.restricted_to_edges(names)
        with pytest.raises(HypergraphError, match=message):
            ref.restricted_to_edges(h, names)
