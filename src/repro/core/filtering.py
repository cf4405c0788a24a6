"""Large-edge filtering (Section 3, "Implementation Issues and the Graph Model").

The paper's probabilistic argument: in a random hypergraph an edge of
degree ``k`` traverses the min-cut bipartition with probability
``1 − O(2^−k)``, verified on industry netlists (Table 1) where signals
with ``k ≥ 14`` almost always cross the best cut.  "Accordingly, we
heuristically ignore large edges in the input hypergraph" — which keeps
the intersection graph at bounded degree (required by the analysis) and,
in practice, increases its diameter so the boundary set shrinks.

Filtered edges still count toward the *final* cutsize: Algorithm I just
does not let them steer the intersection-graph cut.
"""

from __future__ import annotations

from collections.abc import Hashable
from itertools import compress
from operator import not_

from repro.core.hypergraph import Hypergraph

EdgeName = Hashable

#: Paper: "a size threshold as low as k >= 10" gives very small expected error.
DEFAULT_EDGE_SIZE_THRESHOLD = 10


def filter_large_edges(
    hypergraph: Hypergraph, threshold: int = DEFAULT_EDGE_SIZE_THRESHOLD
) -> tuple[Hypergraph, frozenset[EdgeName]]:
    """Drop hyperedges with ``size >= threshold``.

    Returns the sparser working hypergraph (all vertices kept, so isolated
    modules remain placeable) and the names of the ignored edges.

    ``threshold=None``-like behaviour is obtained by passing a threshold
    larger than :attr:`Hypergraph.max_edge_size`.
    """
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2 (got {threshold}); 2-pin nets are never noise")
    names = hypergraph.edge_names
    large = [len(members) >= threshold for members in hypergraph.edges.values()]
    ignored = frozenset(compress(names, large))
    if not ignored:
        return hypergraph, ignored
    kept = list(compress(names, map(not_, large)))
    return hypergraph.restricted_to_edges(kept), ignored
