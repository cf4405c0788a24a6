"""Differential suite: CSR traversal paths vs the legacy set walks.

The CSR refactor's whole contract is that the vectorized paths are
element-for-element identical to the pure-python ``list[set[int]]``
walks — same BFS visit order, same farthest-node tie-breaks, same
components, same boundary extraction, same FM gains.  These tests pin
that equivalence on hypothesis-generated graphs by running both paths
on the same instance: the CSR path is forced on (the threshold is a
performance knob, not a semantics knob), the legacy path is forced off.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.cutstate as cutstate_mod
from repro.baselines.cutstate import CutState
from repro.baselines.fiduccia_mattheyses import fiduccia_mattheyses
from repro.core.boundary import boundary_graph
from repro.core.complete_cut import complete_cut
from repro.core.csr import CSRAdjacency
from repro.core.dual_cut import double_bfs_cut, random_longest_bfs_path
from repro.core.graph import Graph

from tests.conftest import hypergraphs


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


class TestCutPipelineEquivalence:
    @given(graphs(removals=False), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_double_bfs_cut_and_boundary_identical(self, g, seed):
        rng = random.Random(seed)
        u, v, _ = random_longest_bfs_path(_force_legacy(g), rng)
        if u == v:
            return
        for mode in ("balanced", "level"):
            _force_legacy(g)
            cut_legacy = double_bfs_cut(g, u, v, random.Random(seed), mode=mode)
            b_legacy = boundary_graph(g, cut_legacy)
            _force_csr(g)
            cut_csr = double_bfs_cut(g, u, v, random.Random(seed), mode=mode)
            b_csr = boundary_graph(g, cut_csr)
            assert cut_legacy == cut_csr
            assert b_legacy.left == b_csr.left
            assert b_legacy.right == b_csr.right
            assert sorted(map(repr, b_legacy.graph.edges())) == sorted(
                map(repr, b_csr.graph.edges())
            )
            for node in b_legacy.graph.nodes:
                assert b_legacy.graph.node_weight(node) == b_csr.graph.node_weight(node)
            # Completion runs on identical G' with identical tie-break
            # inputs, so the full winner/loser outcome must match too.
            for variant in ("min_degree", "min_loser_weight"):
                assert complete_cut(b_legacy, variant=variant) == complete_cut(
                    b_csr, variant=variant
                )
            assert complete_cut(
                b_legacy, variant="random_min_degree", rng=random.Random(seed)
            ) == complete_cut(b_csr, variant="random_min_degree", rng=random.Random(seed))


class TestFMEquivalence:
    @given(hypergraphs(min_vertices=3, max_vertices=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_all_gains_match_per_vertex_gain(self, h, seed):
        rng = random.Random(seed)
        verts = list(h.vertices)
        left = set(v for v in verts if rng.random() < 0.5)
        state = CutState(h, left)
        state._build_arrays()  # force the interned path regardless of size
        gains = state.all_gains()
        assert gains is not None
        for v in verts:
            assert gains[v] == state.gain(v)

    @given(hypergraphs(min_vertices=4, max_vertices=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_cutstate_init_identical(self, h, seed):
        rng = random.Random(seed)
        left = set(v for v in h.vertices if rng.random() < 0.5)
        old = cutstate_mod.VECTORIZE_MIN_PINS
        try:
            cutstate_mod.VECTORIZE_MIN_PINS = 0
            vec = CutState(h, left)
            cutstate_mod.VECTORIZE_MIN_PINS = 10**9
            legacy = CutState(h, left)
        finally:
            cutstate_mod.VECTORIZE_MIN_PINS = old
        assert vec.pins == legacy.pins
        assert vec.cutsize == legacy.cutsize
        assert vec.weighted_cutsize == legacy.weighted_cutsize
        assert vec.side_sizes == legacy.side_sizes
        assert vec.side_weights == legacy.side_weights

    @given(hypergraphs(min_vertices=4, max_vertices=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fm_run_identical_either_init_path(self, h, seed):
        old = cutstate_mod.VECTORIZE_MIN_PINS
        try:
            cutstate_mod.VECTORIZE_MIN_PINS = 0
            vec = fiduccia_mattheyses(h, seed=seed)
            cutstate_mod.VECTORIZE_MIN_PINS = 10**9
            legacy = fiduccia_mattheyses(h, seed=seed)
        finally:
            cutstate_mod.VECTORIZE_MIN_PINS = old
        assert vec.bipartition.left == legacy.bipartition.left
        assert vec.bipartition.cutsize == legacy.bipartition.cutsize
        assert vec.history == legacy.history
        assert vec.evaluations == legacy.evaluations
