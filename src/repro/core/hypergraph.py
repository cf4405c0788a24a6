"""Hypergraph data structure modelling a circuit netlist.

In the VLSI/PCB CAD setting of the paper, a netlist naturally defines a
hypergraph ``H``: vertices correspond to *modules* (cells, chips, blocks)
and hyperedges correspond to *signal nets*, each net being the subset of
modules it connects.

The class below is a general weighted hypergraph.  Vertices are arbitrary
hashable labels; hyperedges are named and map to frozensets of vertices.
Vertex weights model module area (used by the weighted r-bipartition
"engineer's rule"); edge weights model net criticality.

Design notes
------------
* All mutation goes through :meth:`add_vertex` / :meth:`add_edge` /
  :meth:`remove_edge` / :meth:`remove_vertex` / :meth:`set_vertex_weight`.
  Every query is O(1) or linear in the size of the answer, apart from the
  first read of the vertex->incident-edge index.
* :meth:`freeze` makes a hypergraph immutable: every mutator then raises
  :class:`HypergraphError` and changes nothing.  A frozen hypergraph can
  keep tables computed from it alone (:meth:`derived`), so repeated runs
  on it build them once; Algorithm I keeps its filtered hypergraph, dual
  and components there.  Nothing in the library freezes a hypergraph by
  itself, and the kept tables are never pickled.
* That index is built on first read (:meth:`incident_edges`,
  :meth:`neighbors`, :meth:`connected_components`, ...) and kept up to
  date from then on.  It receives edge names in edge order, as adding
  the edges one by one does, so every vertex's set has the same layout
  (and iteration order) whenever it is built.  Algorithm I, the content
  digest and the service's request path never read it, so they never
  pay for it.
* Weights are positive and finite (:func:`checked_weight`).
* Hyperedges are *sets* of vertices: a net listing the same module twice is
  the same as listing it once, matching netlist semantics.
* Singleton edges (one-pin nets) are legal — they can never cross a cut —
  and empty edges are rejected.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import Iterator, TypeVar

Vertex = Hashable
EdgeName = Hashable
T = TypeVar("T")


class HypergraphError(ValueError):
    """Raised on structurally invalid hypergraph operations."""


def checked_weight(kind: str, weight: float) -> float:
    """``weight`` as a float; raises :class:`HypergraphError` unless positive and finite.

    ``kind`` (``"vertex"`` or ``"edge"``) names the weight in the message.
    """
    if weight <= 0:
        raise HypergraphError(f"{kind} weight must be positive, got {weight!r}")
    try:
        value = float(weight)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not value < math.inf:  # inf, and nan (which compares false)
        raise HypergraphError(f"{kind} weight must be finite, got {weight!r}")
    return value


def auto_edge_name(taken: Mapping, counter: int) -> tuple[str, int]:
    """The first name ``e<k>`` with ``k >= counter`` not in ``taken``, and ``k + 1``."""
    while f"e{counter}" in taken:
        counter += 1
    return f"e{counter}", counter + 1


class Hypergraph:
    """A weighted hypergraph ``H = (V, E)``.

    Parameters
    ----------
    vertices:
        Optional iterable of vertex labels to pre-create.
    edges:
        Optional mapping ``name -> iterable of vertices`` or iterable of
        vertex-iterables (auto-named ``e0, e1, ...``).  Vertices appearing
        in edges are created implicitly with weight 1, as
        :meth:`add_edge` creates them.

    Examples
    --------
    The 8-node, 5-edge hypergraph of Figure 1 of the paper::

        >>> h = Hypergraph()
        >>> _ = h.add_edge([1, 2, 3], name="A")
        >>> _ = h.add_edge([3, 4], name="B")
        >>> h.num_vertices, h.num_edges
        (4, 2)
    """

    # Set on the instance by freeze(): a frozen hypergraph's kept tables.
    _derived: dict | None = None

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Mapping[EdgeName, Iterable[Vertex]] | Iterable[Iterable[Vertex]] | None = None,
    ) -> None:
        self._vertex_weights: dict[Vertex, float] = {}
        self._edge_members: dict[EdgeName, frozenset[Vertex]] = {}
        self._edge_weights: dict[EdgeName, float] = {}
        # Built on first read by _incidence_map(); None until then.
        self._incidence: dict[Vertex, set[EdgeName]] | None = None
        self._auto_edge_counter = 0

        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            if isinstance(edges, Mapping):
                for name, members in edges.items():
                    self.add_edge(members, name=name)
            else:
                for members in edges:
                    self.add_edge(members)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def _from_tables(
        cls,
        vertex_weights: dict[Vertex, float],
        edge_members: dict[EdgeName, frozenset[Vertex]],
        edge_weights: dict[EdgeName, float],
        auto_edge_counter: int = 0,
    ) -> "Hypergraph":
        """A hypergraph that owns the given tables (not copied, not re-checked).

        Every member of every edge must be a key of ``vertex_weights``,
        and both edge tables must list the same names in the same order.
        """
        h = cls()
        h._vertex_weights = vertex_weights
        h._edge_members = edge_members
        h._edge_weights = edge_weights
        h._auto_edge_counter = auto_edge_counter
        return h

    def add_vertex(self, v: Vertex, weight: float = 1.0) -> Vertex:
        """Add vertex ``v`` (idempotent; re-adding updates the weight)."""
        self._check_mutable()
        weight = checked_weight("vertex", weight)
        if self._incidence is not None and v not in self._vertex_weights:
            self._incidence[v] = set()
        self._vertex_weights[v] = weight
        return v

    def add_edge(
        self,
        members: Iterable[Vertex],
        name: EdgeName | None = None,
        weight: float = 1.0,
    ) -> EdgeName:
        """Add a hyperedge over ``members`` and return its name.

        Unknown member vertices are created with weight 1, in the order
        the pins are given (first occurrence first), so vertex order never
        depends on set iteration order.  Duplicate members collapse (an
        edge is a set).  An empty member list and a duplicate edge name
        are both errors.
        """
        self._check_mutable()
        pins = list(members)  # may be an iterator: read it once
        member_set = frozenset(pins)
        if not member_set:
            raise HypergraphError("hyperedge must contain at least one vertex")
        weight = checked_weight("edge", weight)
        if name is None:
            name, self._auto_edge_counter = auto_edge_name(
                self._edge_members, self._auto_edge_counter
            )
        elif name in self._edge_members:
            raise HypergraphError(f"duplicate edge name {name!r}")
        for v in pins:
            if v not in self._vertex_weights:
                self.add_vertex(v)
        if self._incidence is not None:
            for v in member_set:
                self._incidence[v].add(name)
        self._edge_members[name] = member_set
        self._edge_weights[name] = weight
        return name

    def remove_edge(self, name: EdgeName) -> None:
        """Remove hyperedge ``name``; its vertices remain."""
        self._check_mutable()
        if name not in self._edge_members:
            raise HypergraphError(f"no such edge {name!r}")
        # Build the index before the edge leaves: a removal leaves its
        # mark on a set's layout, which a later build from the remaining
        # edges would not reproduce.
        incidence = self._incidence_map()
        members = self._edge_members.pop(name)
        del self._edge_weights[name]
        for v in members:
            incidence[v].discard(name)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` from the graph and from every incident edge.

        Edges that would become empty are removed entirely.
        """
        self._check_mutable()
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        incidence = self._incidence_map()
        for name in list(incidence[v]):
            shrunk = self._edge_members[name] - {v}
            if shrunk:
                self._edge_members[name] = shrunk
            else:
                self.remove_edge(name)
        del incidence[v]
        del self._vertex_weights[v]

    @classmethod
    def from_edge_list(cls, edge_list: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        """Build a hypergraph from bare member lists (auto-named edges)."""
        return cls(edges=list(edge_list))

    def copy(self) -> "Hypergraph":
        """Deep-enough copy (labels are shared, structure is not), never frozen."""
        h = Hypergraph()
        for v, w in self._vertex_weights.items():
            h.add_vertex(v, w)
        for name, members in self._edge_members.items():
            h.add_edge(members, name=name, weight=self._edge_weights[name])
        return h

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------

    def freeze(self) -> "Hypergraph":
        """Make this hypergraph immutable and return it.

        From now on every mutator raises :class:`HypergraphError` and
        leaves the hypergraph as it was, and :meth:`derived` keeps what
        it builds.  Freezing changes neither ``==`` nor the content
        digest; :meth:`copy` gives an unfrozen copy.  Idempotent.
        """
        if self._derived is None:
            self._derived = {}
        return self

    @property
    def frozen(self) -> bool:
        return self._derived is not None

    def _check_mutable(self) -> None:
        if self._derived is not None:
            raise HypergraphError("hypergraph is frozen; copy() it to change it")

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, kept under ``key`` when this hypergraph is frozen.

        For tables computed from the hypergraph alone, which a frozen
        hypergraph cannot invalidate: the first call builds, later ones
        reuse.  A value is kept only once ``build`` has returned, and
        when two threads race the first value kept is the one both get.
        An unfrozen hypergraph keeps nothing.  Kept values are never
        pickled.
        """
        derived = self._derived
        if derived is None:
            return build()
        try:
            return derived[key]
        except KeyError:
            return derived.setdefault(key, build())

    def kept(self) -> dict:
        """A copy of what :meth:`derived` keeps, by key (empty unless frozen)."""
        return dict(self._derived or {})

    def __getstate__(self) -> dict:
        # The incidence index is rebuilt on first read, in edge order, so
        # a copy's sets iterate as the original's did when it was built.
        state = dict(self.__dict__)
        state["_incidence"] = None
        if "_derived" in state:
            state["_derived"] = {}
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> list[Vertex]:
        """Vertex labels in insertion order."""
        return list(self._vertex_weights)

    @property
    def edge_names(self) -> list[EdgeName]:
        """Edge names in insertion order."""
        return list(self._edge_members)

    @property
    def edges(self) -> dict[EdgeName, frozenset[Vertex]]:
        """Mapping of edge name to member frozenset (a copy)."""
        return dict(self._edge_members)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_weights)

    @property
    def num_edges(self) -> int:
        return len(self._edge_members)

    @property
    def num_pins(self) -> int:
        """Total pin count: sum of edge sizes (netlist terminology)."""
        return sum(len(m) for m in self._edge_members.values())

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertex_weights

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertex_weights)

    def has_edge(self, name: EdgeName) -> bool:
        return name in self._edge_members

    def edge_members(self, name: EdgeName) -> frozenset[Vertex]:
        """The vertex set of hyperedge ``name``."""
        try:
            return self._edge_members[name]
        except KeyError:
            raise HypergraphError(f"no such edge {name!r}") from None

    def edge_size(self, name: EdgeName) -> int:
        """Number of pins of hyperedge ``name`` (the paper's edge degree)."""
        return len(self.edge_members(name))

    def edge_weight(self, name: EdgeName) -> float:
        if name not in self._edge_weights:
            raise HypergraphError(f"no such edge {name!r}")
        return self._edge_weights[name]

    def vertex_weight(self, v: Vertex) -> float:
        try:
            return self._vertex_weights[v]
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def set_vertex_weight(self, v: Vertex, weight: float) -> None:
        self._check_mutable()
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        self._vertex_weights[v] = checked_weight("vertex", weight)

    @property
    def total_vertex_weight(self) -> float:
        return sum(self._vertex_weights.values())

    def _incidence_map(self) -> dict[Vertex, set[EdgeName]]:
        """Each vertex's incident edge names, built on first call and kept.

        Names go in in edge order, as :meth:`add_edge` inserts them one
        edge at a time, so each set has the layout (and iteration order)
        that adding the edges one by one gives it.
        """
        incidence = self._incidence
        if incidence is None:
            incidence = {v: set() for v in self._vertex_weights}
            for name, members in self._edge_members.items():
                for v in members:
                    incidence[v].add(name)
            self._incidence = incidence
        return incidence

    def incident_edges(self, v: Vertex) -> frozenset[EdgeName]:
        """Names of hyperedges containing vertex ``v``."""
        try:
            return frozenset(self._incidence_map()[v])
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def incident_edges_view(self, v: Vertex) -> set[EdgeName]:
        """Zero-copy view of the incidence set of ``v`` — read-only.

        Hot-path variant of :meth:`incident_edges` (flow's corridor
        search calls it once per corridor vertex); callers must not
        mutate the returned set or hold it across hypergraph mutations.
        """
        try:
            return self._incidence_map()[v]
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def iter_edges(self) -> Iterator[tuple[EdgeName, frozenset[Vertex]]]:
        """Iterate ``(name, members)`` pairs without copying the edge dict."""
        return iter(self._edge_members.items())

    def vertex_degree(self, v: Vertex) -> int:
        """Number of hyperedges containing ``v`` (the paper's node degree)."""
        return len(self.incident_edges(v))

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """Vertices sharing at least one hyperedge with ``v`` (excl. ``v``)."""
        out: set[Vertex] = set()
        for name in self.incident_edges(v):
            out.update(self._edge_members[name])
        out.discard(v)
        return frozenset(out)

    @property
    def max_vertex_degree(self) -> int:
        """The paper's ``d`` bound: max edges incident to one vertex."""
        if not self._vertex_weights:
            return 0
        return max(len(e) for e in self._incidence_map().values())

    @property
    def max_edge_size(self) -> int:
        """The paper's ``r`` bound: max pins on one edge."""
        if not self._edge_members:
            return 0
        return max(len(m) for m in self._edge_members.values())

    def is_graph(self) -> bool:
        """True when every hyperedge has exactly two pins."""
        return all(len(m) == 2 for m in self._edge_members.values())

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------

    def induced(self, vertex_subset: Iterable[Vertex]) -> "Hypergraph":
        """Sub-hypergraph on ``vertex_subset``.

        Each edge is restricted to the subset; edges that lose all of
        their pins disappear.  Edges reduced to one pin are kept (they are
        uncuttable but contribute to degree statistics).
        """
        subset = set(vertex_subset)
        unknown = subset - set(self._vertex_weights)
        if unknown:
            raise HypergraphError(f"vertices not in hypergraph: {sorted(map(repr, unknown))}")
        h = Hypergraph()
        for v in subset:
            h.add_vertex(v, self._vertex_weights[v])
        for name, members in self._edge_members.items():
            kept = members & subset
            if kept:
                h.add_edge(kept, name=name, weight=self._edge_weights[name])
        return h

    def restricted_to_edges(self, edge_subset: Iterable[EdgeName]) -> "Hypergraph":
        """Sub-hypergraph keeping only the named edges, in the given order (all vertices kept).

        The edge tables are built with dict bulk operations: member
        frozensets are immutable and shared with ``self`` rather than
        rebuilt, and the incidence index is left to be built on first
        read.  This runs once per :func:`algorithm1` call (the
        large-edge filter).
        """
        names = list(edge_subset)
        members = self._edge_members
        try:
            kept = dict(zip(names, map(members.__getitem__, names)))
        except KeyError:
            kept = {}
        if len(kept) != len(names):
            # Report the first bad name, as adding the edges one by one would.
            seen = set()
            for name in names:
                self.edge_members(name)
                if name in seen:
                    raise HypergraphError(f"duplicate edge name {name!r}")
                seen.add(name)
        return Hypergraph._from_tables(
            dict(self._vertex_weights),
            kept,
            dict(zip(names, map(self._edge_weights.__getitem__, names))),
        )

    def connected_components(self) -> list[set[Vertex]]:
        """Vertex sets of the connected components of ``H``.

        Two vertices are connected when linked by a chain of hyperedges.
        """
        incidence = self._incidence_map()
        seen: set[Vertex] = set()
        components: list[set[Vertex]] = []
        for start in self._vertex_weights:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                v = frontier.pop()
                for name in incidence[v]:
                    for u in self._edge_members[name]:
                        if u not in seen:
                            seen.add(u)
                            component.add(u)
                            frontier.append(u)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._vertex_weights:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # statistics / diagnostics
    # ------------------------------------------------------------------

    def edge_size_histogram(self) -> dict[int, int]:
        """Mapping ``edge size -> count`` over all hyperedges."""
        hist: dict[int, int] = {}
        for members in self._edge_members.values():
            hist[len(members)] = hist.get(len(members), 0) + 1
        return dict(sorted(hist.items()))

    def average_edge_size(self) -> float:
        if not self._edge_members:
            return 0.0
        return self.num_pins / self.num_edges

    def validate(self) -> None:
        """Check internal index consistency; raises on corruption."""
        for name, members in self._edge_members.items():
            for v in members:
                if v not in self._vertex_weights:
                    raise HypergraphError(f"edge {name!r} references unknown vertex {v!r}")
        # Every member is a known vertex, so the index can be built.
        incidence = self._incidence_map()
        for name, members in self._edge_members.items():
            for v in members:
                if name not in incidence[v]:
                    raise HypergraphError(f"incidence index missing {name!r} at vertex {v!r}")
        for v, names in incidence.items():
            for name in names:
                if name not in self._edge_members:
                    raise HypergraphError(f"incidence of {v!r} lists unknown edge {name!r}")
                if v not in self._edge_members[name]:
                    raise HypergraphError(f"incidence of {v!r} lists non-incident edge {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._vertex_weights == other._vertex_weights
            and self._edge_members == other._edge_members
            and self._edge_weights == other._edge_weights
        )

    def __repr__(self) -> str:
        return (
            f"Hypergraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, num_pins={self.num_pins})"
        )
