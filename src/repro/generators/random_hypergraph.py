"""Random hypergraphs ``H(n, d, r)`` — the theoretical model of Section 3.

The paper analyses hypergraphs with ``n`` nodes, node degree at most
``d`` and edge degree (size) at most ``r`` — "this naturally fits such
paradigms as circuit layout".  The sampler below draws edges of uniform
random size in ``[2, r]`` over vertices with remaining degree capacity,
which keeps both bounds by construction.

Also provided: ``k``-uniform random hypergraphs (no degree bound) and
random ``d``-regular graphs, the model of Bollobás & de la Vega's
``O(log n)`` diameter theorem which the analysis package validates.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.core.graph import Graph
from repro.core.hypergraph import Hypergraph


class _CapacityPool(Sequence):
    """The vertices with remaining degree capacity, in ascending order.

    Drop-in replacement for the ``available`` list the sampler used to
    rebuild after every edge (an O(edges * vertices) rebuild that
    dominated generation beyond ~10k modules).  A Fenwick tree gives
    O(log n) k-th-element selection and O(log n) removal instead.

    ``rng.sample(pool, k)`` draws the **exact same stream** as with the
    legacy list: CPython's sampler only touches ``len(population)``,
    ``population[j]`` (selection-set path, used whenever the pool is
    larger than its small-``n`` threshold) and ``list(population)``
    (pool-copy path for tiny populations, served index-by-index through
    the Sequence mixin) — and because the legacy rebuild preserved
    relative order, its list was always exactly the alive vertices in
    ascending id order, which is what indexing the tree yields.
    """

    __slots__ = ("_n", "_tree", "_size", "_alive", "_top")

    def __init__(self, alive: Iterable[int], n: int) -> None:
        self._n = n
        self._tree = [0] * (n + 1)
        self._size = 0
        self._alive = bytearray(n)
        top = 1
        while top * 2 <= n:
            top *= 2
        self._top = top
        for v in alive:
            self.add(v)

    def _update(self, v: int, delta: int) -> None:
        i = v + 1
        tree = self._tree
        while i <= self._n:
            tree[i] += delta
            i += i & (-i)

    def add(self, v: int) -> None:
        if not self._alive[v]:
            self._alive[v] = 1
            self._size += 1
            self._update(v, 1)

    def discard(self, v: int) -> None:
        if self._alive[v]:
            self._alive[v] = 0
            self._size -= 1
            self._update(v, -1)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, j: int) -> int:
        if j < 0:
            j += self._size
        if not 0 <= j < self._size:
            raise IndexError(j)
        # Smallest vertex whose alive-prefix count reaches j + 1.
        pos = 0
        rem = j + 1
        bit = self._top
        tree = self._tree
        n = self._n
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] < rem:
                pos = nxt
                rem -= tree[nxt]
            bit >>= 1
        return pos


def random_hypergraph(
    num_vertices: int,
    num_edges: int,
    max_vertex_degree: int = 4,
    max_edge_size: int = 4,
    seed: int | random.Random | None = None,
    connect: bool = False,
) -> Hypergraph:
    """Sample from ``H(n, d, r)``: degree <= d, edge size <= r.

    Parameters
    ----------
    num_vertices, num_edges:
        Target sizes; fewer edges may be produced if degree capacity
        runs out first (each edge consumes 2..r capacity units out of
        ``n * d``).
    max_vertex_degree:
        The paper's ``d`` bound.
    max_edge_size:
        The paper's ``r`` bound (>= 2).
    seed:
        Integer seed or :class:`random.Random`.
    connect:
        When True, first lay a Hamiltonian chain of 2-pin edges so the
        hypergraph is connected (consumes ``n - 1`` of the edge budget).

    Raises
    ------
    ValueError
        On non-positive sizes or bounds that make edges impossible.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    if max_edge_size < 2:
        raise ValueError("max_edge_size must be >= 2")
    if max_vertex_degree < 1:
        raise ValueError("max_vertex_degree must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    h = Hypergraph(vertices=range(num_vertices))
    capacity = {v: max_vertex_degree for v in range(num_vertices)}
    edges_made = 0

    if connect:
        order = list(range(num_vertices))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            if edges_made >= num_edges:
                break
            h.add_edge([a, b])
            capacity[a] -= 1
            capacity[b] -= 1
            edges_made += 1

    available = _CapacityPool(
        (v for v, c in capacity.items() if c > 0), num_vertices
    )
    while edges_made < num_edges and len(available) >= 2:
        size = rng.randint(2, min(max_edge_size, len(available)))
        pins = rng.sample(available, size)
        h.add_edge(pins)
        edges_made += 1
        for v in pins:
            capacity[v] -= 1
            if capacity[v] == 0:
                available.discard(v)
    return h


def random_k_uniform_hypergraph(
    num_vertices: int,
    num_edges: int,
    k: int,
    seed: int | random.Random | None = None,
) -> Hypergraph:
    """``k``-uniform random hypergraph: every edge has exactly ``k`` pins."""
    if k < 2 or k > num_vertices:
        raise ValueError(f"k must be in [2, num_vertices], got {k}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    h = Hypergraph(vertices=range(num_vertices))
    for _ in range(num_edges):
        h.add_edge(rng.sample(range(num_vertices), k))
    return h


def random_regular_graph(
    num_vertices: int,
    degree: int,
    seed: int | random.Random | None = None,
    max_attempts: int = 100,
) -> Graph:
    """Random ``d``-regular simple graph by the pairing (stub) model.

    Retries the stub matching until it is simple (no loops / multi-edges)
    — the standard rejection sampler, overwhelmingly fast for the small
    fixed degrees used in the diameter experiments.
    """
    if (num_vertices * degree) % 2 != 0:
        raise ValueError("num_vertices * degree must be even")
    if degree >= num_vertices:
        raise ValueError("degree must be < num_vertices")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    for _ in range(max_attempts):
        stubs = [v for v in range(num_vertices) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(a == b for a, b in pairs):
            continue
        seen = set()
        simple = True
        for a, b in pairs:
            key = (a, b) if a < b else (b, a)
            if key in seen:
                simple = False
                break
            seen.add(key)
        if not simple:
            continue
        return Graph(nodes=range(num_vertices), edges=pairs)
    raise RuntimeError(
        f"failed to sample a simple {degree}-regular graph on {num_vertices} "
        f"vertices in {max_attempts} attempts"
    )
