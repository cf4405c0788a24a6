"""Simulated annealing partitioner (Table 2's "SA" column; ref [18]).

Move class: relocate a single module to the other side.  The cost blends
the hyperedge cutsize with a quadratic weight-imbalance penalty — the
penalty-term formulation of Fukunaga et al. that the paper's Section 1
describes as "very natural".  Acceptance follows Metropolis; the
temperature schedule is geometric with an automatic initial temperature
calibrated so that the configured initial acceptance ratio holds on a
random-move sample (standard Kirkpatrick-style tuning).

Table 1's experiments ("averaged over 10 simulated annealing runs") are
driven through this module with ten seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import obs
from repro.baselines.cutstate import LEFT, RIGHT, initial_state
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling-schedule knobs for :func:`simulated_annealing`.

    Attributes
    ----------
    initial_temperature:
        Starting temperature; ``None`` auto-calibrates from a sample of
        random moves so that ``initial_acceptance`` of them would be
        accepted.
    alpha:
        Geometric cooling factor per temperature step (0 < alpha < 1).
    moves_per_temperature:
        Inner-loop length; ``None`` uses ``10 * num_vertices``.
    min_temperature:
        Stop when the temperature falls below this.
    max_total_moves:
        Hard cap on attempted moves (guards pure-Python runtimes).
    initial_acceptance:
        Target acceptance ratio for auto-calibration.
    frozen_after:
        Stop after this many consecutive temperature steps without any
        accepted move.
    """

    initial_temperature: float | None = None
    alpha: float = 0.95
    moves_per_temperature: int | None = None
    min_temperature: float = 1e-3
    max_total_moves: int = 2_000_000
    initial_acceptance: float = 0.9
    frozen_after: int = 3


def simulated_annealing(
    hypergraph: Hypergraph,
    initial: Bipartition | None = None,
    schedule: AnnealingSchedule | None = None,
    imbalance_penalty: float = 1.0,
    balance_tolerance: float = 0.1,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Partition ``hypergraph`` by simulated annealing.

    Parameters
    ----------
    hypergraph:
        Netlist to cut; needs at least two vertices.
    initial:
        Starting cut (random balanced split when omitted).
    schedule:
        Cooling schedule (defaults to :class:`AnnealingSchedule`).
    imbalance_penalty:
        Weight of the quadratic imbalance penalty, in units of "cut edges
        per (normalized imbalance)^2 times number of edges".
    balance_tolerance:
        A state only becomes the incumbent best if its weight-imbalance
        fraction is within this bound (mirrors the other baselines).
    seed:
        Integer seed or :class:`random.Random`.
    deadline:
        Wall-clock budget (``Deadline`` or seconds), checked between
        temperature steps; on expiry the best state so far is returned
        with ``degraded=True``.
    """
    if hypergraph.num_vertices < 2:
        raise ValueError("need at least two vertices to bipartition")
    schedule = schedule or AnnealingSchedule()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    deadline = Deadline.coerce(deadline)
    degrade_reason: str | None = None
    state = initial_state(hypergraph, initial, rng)

    total_weight = hypergraph.total_vertex_weight or 1.0
    scale = imbalance_penalty * max(1, hypergraph.num_edges)

    def penalty(weight_left: float) -> float:
        frac = abs(2.0 * weight_left - total_weight) / total_weight
        return scale * frac * frac

    def move_delta(v: int) -> float:
        """Cost change if vertex id ``v`` moved (cut delta minus gain, plus balance)."""
        cut_delta = -state.gain(v)
        w = state.weights[v]
        shift = -w if state.side[v] == LEFT else w
        new_left = state.side_weights[LEFT] + shift
        return cut_delta + penalty(new_left) - penalty(state.side_weights[LEFT])

    n = hypergraph.num_vertices

    temperature = schedule.initial_temperature
    if temperature is None:
        temperature = _calibrate_temperature(n, move_delta, rng, schedule)

    moves_per_temp = schedule.moves_per_temperature or 10 * n
    best_snapshot = state.snapshot()
    best_cut = state.cutsize
    best_feasible = state.weight_imbalance() / total_weight <= balance_tolerance

    history: list[int] = []
    total_moves = 0
    frozen_steps = 0
    temperature_steps = 0
    # The proposal loop reads the state's lists directly, ``move_delta``
    # inlined.  An accepted move's new left weight is the one its
    # proposal priced, so its penalty becomes the current one.
    side = state.side
    pins = state.pins
    incidence = state.incidence
    weights = state.weights
    side_sizes = state.side_sizes
    side_weights = state.side_weights
    randrange = rng.randrange
    proposals = 0
    current_penalty = penalty(side_weights[LEFT])

    with obs.span("baseline.sa"):
        while (
            temperature > schedule.min_temperature
            and total_moves < schedule.max_total_moves
            and frozen_steps < schedule.frozen_after
        ):
            if (
                temperature_steps > 0
                and deadline is not None
                and deadline.expired()
            ):
                degrade_reason = (
                    f"deadline expired after {temperature_steps} temperature steps"
                )
                obs.count("baseline.sa.deadline_stops")
                break
            faults.inject("baseline.sa.step")
            accepted_any = False
            for _ in range(moves_per_temp):
                total_moves += 1
                v = randrange(n)
                s = side[v]
                if side_sizes[s] <= 1:
                    continue  # moving v would empty its side
                own = pins[s]
                other = pins[1 - s]
                gain = 0
                for e in incidence[v]:
                    if other[e] == 0:
                        gain -= 1
                    elif own[e] == 1:
                        gain += 1
                proposals += 1
                w = weights[v]
                new_left = side_weights[LEFT] + (-w if s == LEFT else w)
                frac = abs(2.0 * new_left - total_weight) / total_weight
                new_penalty = scale * frac * frac
                delta = -gain + new_penalty - current_penalty
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    state.apply_move(v)
                    current_penalty = new_penalty
                    accepted_any = True
                    imbalance = abs(side_weights[LEFT] - side_weights[RIGHT])
                    feasible = imbalance / total_weight <= balance_tolerance
                    better = (feasible and not best_feasible) or (
                        feasible == best_feasible and state.cutsize < best_cut
                    )
                    if better:
                        best_snapshot = state.snapshot()
                        best_cut = state.cutsize
                        best_feasible = feasible
                if total_moves >= schedule.max_total_moves:
                    break
            history.append(best_cut)
            temperature_steps += 1
            frozen_steps = 0 if accepted_any else frozen_steps + 1
            temperature *= schedule.alpha

        state.restore(best_snapshot)
    state.evaluations += proposals

    obs.count("baseline.sa.runs")
    obs.count("baseline.sa.temperature_steps", temperature_steps)
    obs.count("baseline.sa.moves", total_moves)
    obs.count("baseline.sa.evaluations", state.evaluations)
    return BaselineResult(
        bipartition=state.to_bipartition(),
        iterations=temperature_steps,
        evaluations=state.evaluations,
        history=tuple(history),
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason,
    )


def _calibrate_temperature(n, move_delta, rng, schedule) -> float:
    """Pick T0 so ~``initial_acceptance`` of sampled uphill moves accept.

    Kirkpatrick's rule of thumb: ``T0 = mean(uphill deltas) / -ln(p0)``.
    """
    sample = min(200, 5 * n)
    uphill: list[float] = []
    for _ in range(sample):
        delta = move_delta(rng.randrange(n))
        if delta > 0:
            uphill.append(delta)
    if not uphill:
        return 1.0
    mean_uphill = sum(uphill) / len(uphill)
    p0 = min(max(schedule.initial_acceptance, 1e-6), 1 - 1e-6)
    return mean_uphill / -math.log(p0)
