"""Differential suite: the CSR BFS vs the sequential walk it replaced.

Every traversal of a :class:`Graph` runs the level-synchronous CSR BFS,
whose contract is that it is element-for-element identical to a
sequential FIFO walk over each node's neighbors in ascending slot order
— same BFS visit order, same distances, same farthest-node tie-breaks,
same components.  ``Graph`` ran that walk itself on graphs below 2048
edges; it is kept as :func:`tests.reference_start.set_walk_bfs`, and
these tests pin the equivalence against it on hypothesis-generated
graphs, walking rows sorted from the drawn edge list itself (not read
back from the CSR), with the graph's label-level traversals rebuilt on
the walk the way ``Graph`` built them.  The boundary extraction and ``G'`` construction
have no twins left; their old pair is checked against the index path in
``tests/test_start_differential.py``.  The ``CutState`` numpy twin went
with the label-space ``CutState``; ``tests/test_baseline_differential.py``
checks the engines against that.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from tests.reference_start import set_walk_bfs


class WalkedGraph(Graph):
    """A :class:`Graph` that also keeps ascending rows built from its edge list."""

    def __init__(self, n: int, edges: list[tuple[int, int]]) -> None:
        super().__init__(nodes=range(n), edges=edges)
        rows: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            rows[u].add(v)
            rows[v].add(u)
        self.walk_rows = [sorted(row) for row in rows]


@st.composite
def graphs(draw, min_nodes: int = 2, max_nodes: int = 24):
    """Random graphs with nodes ``0 .. n - 1`` and up to ``3n`` edge draws."""
    n = draw(st.integers(min_nodes, max_nodes))
    m = draw(st.integers(0, 3 * n))
    edges = []
    for _ in range(m):
        pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((pair[0], pair[1]))
    return WalkedGraph(n, edges)


def walk_farthest(g: WalkedGraph, source, rng: random.Random | None = None):
    """``Graph.bfs_farthest`` on the sequential walk: a backwards scan of the tail."""
    order, dist = set_walk_bfs(g.walk_rows, g.index_of(source))
    depth = dist[order[-1]]
    lo = len(order) - 1
    while lo > 0 and dist[order[lo - 1]] == depth:
        lo -= 1
    far = order[lo] if rng is None else order[lo + rng.randrange(len(order) - lo)]
    return g.label_of(far), depth


def walk_components(g: WalkedGraph) -> list[set]:
    """``Graph.connected_components`` on the sequential walk."""
    seen: set[int] = set()
    out = []
    for i in range(g.num_nodes):
        if i not in seen:
            order, _ = set_walk_bfs(g.walk_rows, i)
            seen.update(order)
            out.append({g.label_of(j) for j in order})
    return out


class TestTraversalEquivalence:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_bfs_order_and_distances_identical(self, g):
        csr = g.csr()
        assert g.row_lists() == g.walk_rows
        assert csr.indices.tolist() == [j for row in g.walk_rows for j in row]
        for s in range(g.num_nodes):
            order, dist = set_walk_bfs(g.walk_rows, s)
            legacy_dist = [dist[i] for i in order]
            for c_order, c_dist in (csr.bfs(s), g.bfs_order_from(s)):
                assert c_order.tolist() == order
                assert [int(c_dist[i]) for i in order] == legacy_dist

    @given(graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bfs_farthest_tiebreak_identical(self, g, seed):
        for v in list(g.nodes):
            got_legacy = walk_farthest(g, v, random.Random(seed))
            got_csr = g.bfs_farthest(v, random.Random(seed))
            assert got_legacy == got_csr
            assert walk_farthest(g, v) == g.bfs_farthest(v)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_and_levels_identical(self, g):
        legacy_components = walk_components(g)
        legacy_connected = len(set_walk_bfs(g.walk_rows, 0)[0]) == g.num_nodes
        legacy_levels = {}
        legacy_ecc = {}
        for v in g.nodes:
            order, dist = set_walk_bfs(g.walk_rows, g.index_of(v))
            legacy_levels[v] = {g.label_of(i): dist[i] for i in order}
            legacy_ecc[v] = dist[order[-1]]
        assert g.connected_components() == legacy_components
        assert g.is_connected() == legacy_connected
        for v in list(g.nodes):
            assert list(g.bfs_levels(v).items()) == list(legacy_levels[v].items())
            assert g.eccentricity(v) == legacy_ecc[v]
