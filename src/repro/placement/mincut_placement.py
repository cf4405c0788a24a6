"""Recursive min-cut placement (Breuer-style), driven by any partitioner.

Top-down placement: split the slot region in half along its longer axis,
bipartition the region's modules so each side fits its sub-region, and
recurse breadth-first until regions are single slots.  Net crossings at
each cutline are what hypergraph min-cut bipartitioning minimizes — the
application the paper is motivated by.

Partitioner choices:

* ``"algorithm1"`` — the paper's heuristic with multi-start.
* ``"fm"`` — Fiduccia–Mattheyses from a random split.
* ``"hybrid"`` (default) — Algorithm I construction + FM refinement,
  the pattern the paper's Extensions section anticipates.

Terminal propagation (Dunlop–Kernighan, cited as [8]): nets leaving the
current region pull their internal modules toward the region edge nearest
the net's external pins.  Implemented by adding a fixed zero-area pseudo
terminal on the appropriate side before refinement (requires ``"fm"`` or
``"hybrid"``; pure Algorithm I has no fixed-vertex notion).  External pin
positions are approximated by *anchors* — the centers of the regions
modules currently occupy — which sharpen level by level because the
recursion is processed breadth-first.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro import obs
from repro.baselines.cutstate import CutState
from repro.baselines.fiduccia_mattheyses import fiduccia_mattheyses
from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.placement.grid import GridRegion, SlotGrid
from repro.placement.wirelength import hpwl
from repro.runtime import Deadline

Vertex = Hashable

PARTITIONERS = ("algorithm1", "fm", "hybrid")

#: Pseudo-terminal weight: negligible area, never affects balance.
_TERMINAL_WEIGHT = 1e-9


class PlacementError(ValueError):
    """Raised on infeasible placement requests."""


@dataclass(frozen=True)
class PlacementResult:
    """A finished placement and its quality statistics.

    Attributes
    ----------
    positions:
        Module -> (row, col) slot assignment (one module per slot).
    hypergraph:
        The placed netlist.
    grid:
        The placement surface.
    cut_sizes:
        Cutsize recorded at each recursive bisection, in BFS order —
        the classic "sum of cuts" placement quality proxy.
    degraded / degrade_reason:
        Whether a wall-clock deadline cut the run short (the positions
        are a valid one-module-per-slot placement regardless); excluded
        from equality comparisons.
    """

    positions: dict[Vertex, tuple[int, int]]
    hypergraph: Hypergraph
    grid: SlotGrid
    cut_sizes: tuple[int, ...] = field(default=(), repr=False)
    degraded: bool = field(default=False, compare=False)
    degrade_reason: str | None = field(default=None, compare=False)

    @property
    def total_hpwl(self) -> float:
        """Total half-perimeter wirelength (x = col, y = row)."""
        coords = {v: (float(c), float(r)) for v, (r, c) in self.positions.items()}
        return hpwl(self.hypergraph, coords)

    @property
    def total_cuts(self) -> int:
        return sum(self.cut_sizes)


def _default_grid(num_modules: int) -> SlotGrid:
    """Smallest near-square grid with enough slots."""
    side = 1
    while side * side < num_modules:
        side += 1
    rows = side
    while (rows - 1) * side >= num_modules:
        rows -= 1
    return SlotGrid(rows, side)


def mincut_place(
    hypergraph: Hypergraph,
    grid: SlotGrid | None = None,
    partitioner: str = "hybrid",
    terminal_propagation: bool = True,
    num_starts: int = 10,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> PlacementResult:
    """Place ``hypergraph`` on ``grid`` by recursive min-cut bisection.

    Parameters
    ----------
    hypergraph:
        Netlist to place.
    grid:
        Placement surface; defaults to the smallest near-square grid that
        fits all modules.
    partitioner:
        ``"algorithm1"``, ``"fm"`` or ``"hybrid"`` (see module docs).
    terminal_propagation:
        Add fixed pseudo-terminals for nets leaving each region (ignored
        for the pure ``"algorithm1"`` partitioner).
    num_starts:
        Multi-start count for the Algorithm I stages.
    seed:
        Integer seed or :class:`random.Random`.
    deadline:
        Wall-clock budget (:class:`repro.runtime.Deadline` or plain
        seconds), checked cooperatively before every region bisection and
        threaded into the inner Algorithm I / FM calls.  The first
        bisection always runs; once expired, the remaining regions are
        filled by deterministic repr-order assignment and the result is
        marked ``degraded``.  The positions are always a valid placement.
    """
    if partitioner not in PARTITIONERS:
        raise PlacementError(f"unknown partitioner {partitioner!r}; choose from {PARTITIONERS}")
    grid = grid or _default_grid(hypergraph.num_vertices)
    if hypergraph.num_vertices > grid.capacity:
        raise PlacementError(
            f"{hypergraph.num_vertices} modules do not fit {grid.capacity} slots"
        )
    deadline = Deadline.coerce(deadline)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    positions: dict[Vertex, tuple[int, int]] = {}
    cut_sizes: list[int] = []
    bisections_done = 0
    deadline_skips = 0
    inner_degraded = False
    anchors: dict[Vertex, tuple[float, float]] = {
        v: grid.full_region().center for v in hypergraph.vertices
    }

    queue: deque[tuple[GridRegion, list[Vertex]]] = deque(
        [(grid.full_region(), sorted(hypergraph.vertices, key=repr))]
    )
    with obs.span("placement.mincut"):
        while queue:
            region, modules = queue.popleft()
            if not modules:
                continue
            if region.capacity == 1 or len(modules) == 1:
                for module, slot in zip(modules, region.slots()):
                    positions[module] = slot
                continue
            if (
                bisections_done > 0
                and deadline is not None
                and deadline.expired()
            ):
                # Past the budget: fill the region deterministically
                # (modules are already repr-sorted, slots row-major).
                deadline_skips += 1
                obs.count("placement.mincut.deadline_skips")
                for module, slot in zip(modules, region.slots()):
                    positions[module] = slot
                continue

            first, second, axis = region.split()
            obs.count("placement.mincut.bisections")
            bisections_done += 1
            left_modules, right_modules, cutsize, region_degraded = _bipartition_region(
                hypergraph,
                modules,
                region,
                first,
                second,
                axis,
                partitioner,
                terminal_propagation,
                num_starts,
                anchors,
                rng,
                deadline,
            )
            inner_degraded = inner_degraded or region_degraded
            cut_sizes.append(cutsize)
            for module in left_modules:
                anchors[module] = first.center
            for module in right_modules:
                anchors[module] = second.center
            queue.append((first, left_modules))
            queue.append((second, right_modules))

    obs.count("placement.mincut.runs")
    obs.count("placement.mincut.total_cut", sum(cut_sizes))
    reasons = []
    if deadline_skips:
        reasons.append(
            f"deadline expired after {bisections_done} bisection(s); "
            f"{deadline_skips} region(s) filled deterministically"
        )
    elif inner_degraded:
        reasons.append("deadline expired inside a region partitioner")
    return PlacementResult(
        positions=positions,
        hypergraph=hypergraph,
        grid=grid,
        cut_sizes=tuple(cut_sizes),
        degraded=bool(reasons),
        degrade_reason="; ".join(reasons) or None,
    )


def _bipartition_region(
    hypergraph: Hypergraph,
    modules: list[Vertex],
    region: GridRegion,
    first: GridRegion,
    second: GridRegion,
    axis: str,
    partitioner: str,
    terminal_propagation: bool,
    num_starts: int,
    anchors: dict[Vertex, tuple[float, float]],
    rng: random.Random,
    deadline: Deadline | None = None,
) -> tuple[list[Vertex], list[Vertex], int, bool]:
    """Split ``modules`` between the two sub-regions.

    Returns ``(left, right, cutsize, degraded)`` where ``degraded`` is
    True when an inner engine hit the deadline mid-bisection."""
    module_set = set(modules)
    working = Hypergraph()
    for v in modules:
        working.add_vertex(v, 1.0)  # placement capacity is slot-count based

    terminals_left: set[Vertex] = set()
    terminals_right: set[Vertex] = set()
    use_terminals = terminal_propagation and partitioner != "algorithm1"
    if axis == "vertical":
        cutline = first.col1  # between col1-1 and col1
        coordinate = 0  # x
    else:
        cutline = first.row1
        coordinate = 1  # y

    for name in hypergraph.edge_names:
        members = hypergraph.edge_members(name)
        inside = members & module_set
        if not inside:
            continue
        pins: list[Vertex] = list(inside)
        outside = members - module_set
        if outside and use_terminals:
            centroid = sum(
                (anchors[v][0] if coordinate == 0 else anchors[v][1]) for v in outside
            ) / len(outside)
            terminal = ("__term__", name)
            working.add_vertex(terminal, _TERMINAL_WEIGHT)
            if centroid < cutline - 0.5:
                terminals_left.add(terminal)
            else:
                terminals_right.add(terminal)
            pins.append(terminal)
        if len(pins) >= 2:
            working.add_edge(pins, name=name, weight=hypergraph.edge_weight(name))
        elif pins:
            working.add_vertex(pins[0])

    left, right, degraded = _partition_working(
        working,
        modules,
        terminals_left,
        terminals_right,
        partitioner,
        num_starts,
        rng,
        deadline,
    )

    _enforce_capacity(working, left, right, first.capacity, second.capacity, module_set)

    left_modules = sorted(left & module_set, key=repr)
    right_modules = sorted(right & module_set, key=repr)
    cutsize = 0
    for name in working.edge_names:
        members = working.edge_members(name) & module_set
        if members & left and members & right:
            cutsize += 1
    return left_modules, right_modules, cutsize, degraded


def _partition_working(
    working: Hypergraph,
    modules: list[Vertex],
    terminals_left: set[Vertex],
    terminals_right: set[Vertex],
    partitioner: str,
    num_starts: int,
    rng: random.Random,
    deadline: Deadline | None = None,
) -> tuple[set[Vertex], set[Vertex], bool]:
    """Run the chosen partitioner on the region hypergraph.

    Returns ``(left, right, degraded)``; ``degraded`` reports an inner
    engine stopping early at the deadline."""
    degraded = False
    terminals = terminals_left | terminals_right
    if len(modules) == 2 and not terminals:
        return {modules[0]}, {modules[1]}, degraded

    if partitioner in ("algorithm1", "hybrid"):
        module_only = working.induced(set(modules)) if terminals else working
        if module_only.num_vertices >= 2:
            result = algorithm1(
                module_only, num_starts=num_starts, seed=rng, balance_tolerance=0.2,
                deadline=deadline,
            )
            degraded = degraded or result.degraded
            left = set(result.bipartition.left)
            right = set(result.bipartition.right)
        else:
            left, right = set(modules[: len(modules) // 2]), set(modules[len(modules) // 2 :])
        if partitioner == "algorithm1":
            return left, right, degraded
        left |= terminals_left
        right |= terminals_right
        initial = Bipartition(working, left, right)
        refined = fiduccia_mattheyses(
            working, initial=initial, fixed=terminals, balance_tolerance=0.2, seed=rng,
            deadline=deadline,
        )
        degraded = degraded or refined.degraded
        return set(refined.bipartition.left), set(refined.bipartition.right), degraded

    # partitioner == "fm": random module split + fixed terminals
    shuffled = modules[:]
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    left = set(shuffled[:half]) | terminals_left
    right = set(shuffled[half:]) | terminals_right
    initial = Bipartition(working, left, right)
    refined = fiduccia_mattheyses(
        working, initial=initial, fixed=terminals, balance_tolerance=0.2, seed=rng,
        deadline=deadline,
    )
    degraded = degraded or refined.degraded
    return set(refined.bipartition.left), set(refined.bipartition.right), degraded


def _enforce_capacity(
    working: Hypergraph,
    left: set[Vertex],
    right: set[Vertex],
    cap_left: int,
    cap_right: int,
    module_set: set[Vertex],
) -> None:
    """Move lowest-damage modules off an overfull side until both fit."""
    state = CutState(working, left)
    vertex_id = state.index.id_of
    sides = {0: left, 1: right}
    caps = {0: cap_left, 1: cap_right}
    for side_id in (0, 1):
        while len(sides[side_id] & module_set) > caps[side_id]:
            movable = sides[side_id] & module_set
            best = max(movable, key=lambda v: (state.gain(vertex_id(v)), repr(v)))
            state.apply_move(vertex_id(best))
            sides[side_id].discard(best)
            sides[1 - side_id].add(best)
