"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import gc
import random
import warnings

import pytest
from hypothesis import strategies as st

from repro.core.hypergraph import Hypergraph

# ----------------------------------------------------------------------
# Paper examples
# ----------------------------------------------------------------------

#: Figure 1: 8 modules, 5 signals A–E whose intersection graph is the
#: path A - B - C - D - E.
FIGURE1_EDGES = {
    "A": [1, 2, 3],
    "B": [3, 4],
    "C": [4, 5, 6],
    "D": [6, 7],
    "E": [7, 8],
}

#: Figure 4 / Section 2.3 worked example: 12 modules, 12 signals a–l.
FIGURE4_EDGES = {
    "a": [1, 2, 11],
    "b": [2, 4, 11],
    "c": [1, 3, 4, 12],
    "d": [2, 4, 12],
    "e": [2, 11, 12],
    "f": [1, 11, 12],
    "g": [3, 5, 6, 7],
    "h": [3, 5, 8],
    "i": [5, 8, 9, 10],
    "j": [6, 7, 9, 10],
    "k": [6, 8, 10],
    "l": [7, 9, 10],
}


@pytest.fixture
def figure1_hypergraph() -> Hypergraph:
    return Hypergraph(edges=FIGURE1_EDGES)


@pytest.fixture
def figure4_hypergraph() -> Hypergraph:
    return Hypergraph(edges=FIGURE4_EDGES)


@pytest.fixture
def small_random_hypergraph() -> Hypergraph:
    """A fixed 30-vertex random hypergraph used across behavioural tests."""
    rng = random.Random(12345)
    h = Hypergraph(vertices=range(30))
    for _ in range(55):
        size = rng.choice([2, 2, 3, 3, 4])
        h.add_edge(rng.sample(range(30), size))
    return h


@pytest.fixture
def triangle_hypergraph() -> Hypergraph:
    """Three 2-pin nets forming a triangle — smallest non-trivial case."""
    return Hypergraph(edges={"ab": ["a", "b"], "bc": ["b", "c"], "ca": ["c", "a"]})


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------


@pytest.fixture
def no_leaked_handles():
    """Fail the test if it drops a file or socket without closing it.

    A leaked handle warns from its finalizer, where an exception cannot
    reach the test, so ``-W error::ResourceWarning`` alone lets the test
    pass.  Record the warnings instead, collect garbage so handles held
    in cycles are finalized too, and fail on any.  Modules opt in with
    ``pytestmark = pytest.mark.usefixtures("no_leaked_handles")``.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = []
    for w in caught:
        if issubclass(w.category, ResourceWarning):
            leaked.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if leaked:
        pytest.fail("leaked handles: " + "; ".join(leaked))


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def hypergraphs(
    draw,
    min_vertices: int = 2,
    max_vertices: int = 14,
    min_edges: int = 1,
    max_edges: int = 20,
    max_edge_size: int = 5,
    weighted: bool = False,
):
    """Random small hypergraphs with every vertex 0-indexed.

    Isolated vertices are allowed (vertices need not appear in edges),
    matching real netlists with unconnected modules.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(min_edges, max_edges))
    h = Hypergraph(vertices=range(n))
    for _ in range(m):
        size = draw(st.integers(2, min(max_edge_size, n)))
        pins = draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        h.add_edge(pins)
    if weighted:
        for v in h.vertices:
            h.set_vertex_weight(v, draw(st.floats(0.5, 4.0, allow_nan=False)))
    return h


@st.composite
def connected_hypergraphs(draw, min_vertices: int = 3, max_vertices: int = 12):
    """Hypergraphs guaranteed connected via a vertex chain of 2-pin nets."""
    n = draw(st.integers(min_vertices, max_vertices))
    h = Hypergraph(vertices=range(n))
    for i in range(n - 1):
        h.add_edge([i, i + 1])
    extra = draw(st.integers(0, 10))
    for _ in range(extra):
        size = draw(st.integers(2, min(4, n)))
        pins = draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        h.add_edge(pins)
    return h


@st.composite
def bipartite_graphs(draw, max_side: int = 7):
    """Random bipartite graphs as (left labels, right labels, edge pairs)."""
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    left = [("L", i) for i in range(nl)]
    right = [("R", i) for i in range(nr)]
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)),
            min_size=0,
            max_size=nl * nr,
            unique=True,
        )
    )
    return left, right, [(left[i], right[j]) for i, j in edges]


#: Mixed vertex labels: ints, strs and tuples side by side, so every
#: ``repr`` tie-break and label-to-id conversion is exercised.
LABELS = st.one_of(
    st.integers(-40, 40),
    st.text(alphabet="abxy", min_size=0, max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from("pq")),
)

#: Integer and non-dyadic weights: sums of the latter depend on their order.
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.1, 0.3, 0.7, 1.3])


@st.composite
def labeled_hypergraphs(draw, max_vertices: int = 14, max_edges: int = 22):
    """Small hypergraphs on mixed labels, with weights and singleton edges."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=max_vertices, unique=True))
    h = Hypergraph()
    for v in labels:
        h.add_vertex(v, draw(WEIGHTS))
    for _ in range(draw(st.integers(1, max_edges))):
        size = draw(st.integers(1, min(5, len(labels))))
        pins = draw(st.lists(st.sampled_from(labels), min_size=size, max_size=size, unique=True))
        h.add_edge(pins, weight=draw(WEIGHTS))
    return h


#: Vertex and edge label makers; one family per instance.
BLOCK_LABELS = {
    "int": (lambda v: v, lambda e: e + 1000),
    "str": (lambda v: f"m{v}", lambda e: f"n{e}"),
    "tuple": (lambda v: ("m", v), lambda e: ("n", e)),
}

#: Weights whose sums are exact in any order.
EXACT_WEIGHTS = (1.0, 2.0, 3.0, 0.5, 0.25, 1.75)


@st.composite
def block_hypergraphs(draw) -> Hypergraph:
    """Small hypergraphs of one to three blocks with exact weights.

    Several blocks give a disconnected dual.  A block may repeat an
    earlier block's shape and weights under fresh labels, so component
    packing meets blocks of equal weight.  Modules in no net and
    one-pin nets (isolated dual nodes) come up on their own.
    """
    vertex_label, edge_label = BLOCK_LABELS[draw(st.sampled_from(sorted(BLOCK_LABELS)))]
    blocks = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        if blocks and draw(st.integers(0, 2)) == 0:
            blocks.append(draw(st.sampled_from(blocks)))
            continue
        n = draw(st.integers(2, 12))
        weights = draw(st.lists(st.sampled_from(EXACT_WEIGHTS), min_size=n, max_size=n))
        edges = []
        for _ in range(draw(st.integers(1, 2 * n))):
            size = draw(st.integers(1, min(n, 6)))
            pins = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
            edges.append((pins, draw(st.sampled_from(EXACT_WEIGHTS))))
        blocks.append((weights, edges))
    h = Hypergraph()
    offset = 0
    for weights, edges in blocks:
        for v, weight in enumerate(weights, offset):
            h.add_vertex(vertex_label(v), weight)
        for pins, weight in edges:
            name = edge_label(h.num_edges)
            h.add_edge([vertex_label(offset + p) for p in pins], name=name, weight=weight)
        offset += len(weights)
    for v in range(offset, offset + draw(st.integers(0, 2))):
        h.add_vertex(vertex_label(v), draw(st.sampled_from(EXACT_WEIGHTS)))
    return h


@st.composite
def starts(draw, h: Hypergraph) -> dict:
    """``{"seed": s}``, sometimes with an ``"initial"`` bipartition of ``h``."""
    from repro.core.partition import Bipartition

    seed = draw(st.integers(0, 2**31 - 1))
    if not draw(st.booleans()):
        return {"seed": seed}
    vertices = h.vertices
    flags = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    left = {v for v, f in zip(vertices, flags) if f}
    if not left or len(left) == len(vertices):
        left = {vertices[0]}
    return {"seed": seed, "initial": Bipartition(h, left, set(vertices) - left)}
