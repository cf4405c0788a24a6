"""Spectral bisection baseline (modern reference point).

Not in the paper's 1989 comparison, but the natural "graph space" method
it cites (Fukunaga et al.) matured into spectral partitioning; a credible
open-source release of a hypergraph partitioner ships one.  We take the
clique expansion of the hypergraph (each k-pin net becomes a k-clique
with edge weight ``w / (k - 1)``, the standard net model that preserves
cut weight up to the model's well-known distortion), compute the Fiedler
vector of its weighted Laplacian, and split at the weighted median.

The raw Fiedler vector is only defined up to sign and, within numerical
noise, up to the ordering of (near-)equal components — both of which
vary across BLAS builds and Lanczos start vectors.  The split is
therefore *canonicalized* before use: components are quantized to
:data:`_TIE_DECIMALS` decimals (absorbing eigensolver jitter), the sign
is fixed so the first nonzero quantized component (in vertex order) is
positive, and ties sort by vertex index.  This makes the returned cut a
deterministic function of the hypergraph alone, which is what lets
``spectral`` sit in the bench harness's exact cut-quality gate.
"""

from __future__ import annotations

import random

import numpy as np

from repro import obs
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults

#: Above this size the Laplacian eigenproblem is solved sparsely.
_DENSE_LIMIT = 600

#: Fiedler components are rounded to this many decimals before ordering;
#: differences below it are eigensolver noise, not structure.
_TIE_DECIMALS = 7


def _canonical_order(fiedler: np.ndarray) -> np.ndarray:
    """Deterministic vertex order from a Fiedler vector.

    Quantize, fix the global sign (first nonzero quantized component
    positive), then sort by (quantized value, vertex index).  Two
    eigensolves that agree up to sign and sub-quantum jitter yield the
    same order — the tie-break that makes spectral cuts bit-stable.
    """
    quantized = np.round(fiedler, _TIE_DECIMALS) + 0.0  # +0.0 folds -0.0 into 0.0
    for value in quantized:
        if value != 0.0:
            if value < 0.0:
                quantized = -quantized
            break
    return np.lexsort((np.arange(len(quantized)), quantized))


def spectral_bisection(
    hypergraph: Hypergraph,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Bisect ``hypergraph`` with the Fiedler vector of its clique expansion.

    Deterministic: the Fiedler order is canonicalized (quantized, sign
    fixed, ties broken by vertex index — see :func:`_canonical_order`),
    so the cut does not depend on the BLAS build or on ``seed``, which
    only seeds the sparse solver's start vector.  Returns a true
    bisection (``| |L| - |R| | <= 1``) by splitting the canonical Fiedler
    order at the median.

    The eigensolve is monolithic — it cannot be checkpointed — so an
    already-expired ``deadline`` degrades to a deterministic median split
    of the sorted vertex order instead of starting an eigensolve the
    budget cannot pay for.
    """
    n = hypergraph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices to bipartition")
    deadline = Deadline.coerce(deadline)
    vertices = sorted(hypergraph.vertices, key=repr)
    faults.inject("baseline.spectral.solve")

    if deadline is not None and deadline.expired():
        obs.count("baseline.spectral.deadline_stops")
        return _median_split(
            hypergraph, vertices, "deadline expired before eigensolve; median split"
        )

    index = {v: i for i, v in enumerate(vertices)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for name in hypergraph.edge_names:
        members = [index[v] for v in hypergraph.edge_members(name)]
        k = len(members)
        if k < 2:
            continue
        w = hypergraph.edge_weight(name) / (k - 1)
        for i_pos, i in enumerate(members):
            for j in members[i_pos + 1 :]:
                rows.extend((i, j))
                cols.extend((j, i))
                vals.extend((w, w))

    import scipy.sparse as sp

    if vals:
        adjacency = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    else:
        adjacency = sp.csr_matrix((n, n))
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = sp.diags(degrees) - adjacency

    with obs.span("baseline.spectral"):
        try:
            fiedler = _fiedler_vector(laplacian, seed)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            # ARPACK's errors are RuntimeErrors, and so is SuperLU's
            # report of a singular factor in shift-invert.
            obs.count("baseline.spectral.solver_failures")
            return _median_split(
                hypergraph,
                vertices,
                f"eigensolve failed ({type(exc).__name__}: {exc}); median split",
            )
    order = _canonical_order(fiedler)
    half = n // 2
    left = {vertices[i] for i in order[:half]}
    right = set(vertices) - left

    bipartition = Bipartition(hypergraph, left, right)
    obs.count("baseline.spectral.runs")
    return BaselineResult(
        bipartition=bipartition,
        iterations=1,
        evaluations=hypergraph.num_edges,
        history=(bipartition.cutsize,),
    )


def _median_split(hypergraph: Hypergraph, vertices: list, reason: str) -> BaselineResult:
    """The degraded answer: split the ``repr``-sorted vertex order at the median."""
    half = len(vertices) // 2
    left = set(vertices[:half])
    right = set(vertices) - left
    bipartition = Bipartition(hypergraph, left, right)
    obs.count("baseline.spectral.runs")
    return BaselineResult(
        bipartition=bipartition,
        iterations=0,
        evaluations=hypergraph.num_edges,
        history=(bipartition.cutsize,),
        degraded=True,
        degrade_reason=reason,
    )


def _fiedler_vector(laplacian, seed) -> np.ndarray:
    """Second-smallest eigenvector of the Laplacian (dense or Lanczos).

    Above :data:`_DENSE_LIMIT` there is no dense fallback (an ``n x n``
    matrix is 80 GB at 100k vertices): a failed sparse solve raises, and
    :func:`spectral_bisection` degrades to a median split.
    """
    n = laplacian.shape[0]
    if n <= _DENSE_LIMIT:
        dense = laplacian.toarray()
        _, eigenvectors = np.linalg.eigh(dense)
        return eigenvectors[:, 1]

    import scipy.sparse.linalg as spla

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    v0 = np.array([rng.random() for _ in range(n)])
    _, eigenvectors = spla.eigsh(laplacian.asfptype(), k=2, sigma=-1e-3, which="LM", v0=v0)
    return eigenvectors[:, 1]
