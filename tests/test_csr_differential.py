"""Differential suite: CSR traversal paths vs the legacy set walks.

The CSR refactor's whole contract is that the vectorized paths are
element-for-element identical to the pure-python ``list[set[int]]``
walks — same BFS visit order, same farthest-node tie-breaks, same
components.  These tests pin that equivalence on hypothesis-generated
graphs by running both paths on the same instance:
the CSR path is forced on (the threshold is a performance knob, not a
semantics knob), the legacy path is forced off.  The boundary extraction
and ``G'`` construction have no twins left; their old pair is checked
against the index path in ``tests/test_start_differential.py``.  The
``CutState`` numpy twin went with the label-space ``CutState``;
``tests/test_baseline_differential.py`` checks the engines against that.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csr import CSRAdjacency
from repro.core.graph import Graph


@st.composite
def graphs(draw, min_nodes: int = 2, max_nodes: int = 24, removals: bool = True):
    """Random graphs, optionally with removed vertices (freed slots)."""
    n = draw(st.integers(min_nodes, max_nodes))
    g = Graph(nodes=range(n))
    m = draw(st.integers(0, 3 * n))
    for _ in range(m):
        pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        g.add_edge(pair[0], pair[1])
    if removals:
        for v in draw(st.lists(st.integers(0, n - 1), max_size=n // 3, unique=True)):
            if v in g and g.num_nodes > 2:
                g.remove_vertex(v)
    return g


def _force_csr(g: Graph) -> Graph:
    g._use_csr = lambda: True  # instance attribute shadows the method
    return g


def _force_legacy(g: Graph) -> Graph:
    g._use_csr = lambda: False
    return g


class TestTraversalEquivalence:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_bfs_order_and_distances_identical(self, g):
        csr = CSRAdjacency.from_graph(g)
        legacy = _force_legacy(g)
        for s in list(g.node_indices()):
            order = legacy.bfs_order_from(s)
            dist = legacy.bfs_dist_view()
            legacy_dist = [dist[i] for i in order]
            c_order, c_dist = csr.bfs(s)
            assert c_order.tolist() == order
            assert [int(c_dist[i]) for i in order] == legacy_dist

    @given(graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bfs_farthest_tiebreak_identical(self, g, seed):
        # Both paths over the SAME graph object: a copy() would rebuild
        # the adjacency sets with a different table-growth history and
        # therefore a different (still deterministic) iteration order.
        for v in list(g.nodes):
            _force_legacy(g)
            got_legacy = g.bfs_farthest(v, random.Random(seed))
            _force_csr(g)
            got_csr = g.bfs_farthest(v, random.Random(seed))
            assert got_legacy == got_csr

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_and_levels_identical(self, g):
        _force_legacy(g)
        legacy_components = g.connected_components()
        legacy_connected = g.is_connected()
        legacy_levels = {v: g.bfs_levels(v) for v in g.nodes}
        legacy_ecc = {v: g.eccentricity(v) for v in g.nodes}
        _force_csr(g)
        assert g.connected_components() == legacy_components
        assert g.is_connected() == legacy_connected
        for v in list(g.nodes):
            assert g.bfs_levels(v) == legacy_levels[v]
            assert g.eccentricity(v) == legacy_ecc[v]
