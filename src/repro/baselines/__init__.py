"""Baseline partitioners the paper compares against (Section 4, Table 2).

* :func:`~repro.baselines.random_cut.random_cut` — the "even a random cut
  is within a constant factor" strawman of Section 1.
* :func:`~repro.baselines.kernighan_lin.kernighan_lin` — min-cut
  Kernighan–Lin adapted to hypergraphs (Schweikert–Kernighan netlist
  model), the paper's "MinCut-KL" column.
* :func:`~repro.baselines.fiduccia_mattheyses.fiduccia_mattheyses` — the
  single-move refinement of KL (per-side gain heaps here, where the
  original keeps gain buckets); cited as [9] and included because every
  credible partitioning release ships it.
* :func:`~repro.baselines.simulated_annealing.simulated_annealing` — the
  paper's "SA" column (Kirkpatrick et al. [18]).
* :func:`~repro.baselines.spectral.spectral_bisection` — an extra modern
  reference point (Fiedler vector of the clique expansion).
* :func:`~repro.baselines.multilevel.multilevel_bipartition` — the
  multilevel paradigm (heavy-edge coarsening + FM uncoarsening) that
  eventually superseded the paper's approach; the harness's
  "how far from modern" yardstick.

All partitioners share the incremental cut-evaluation engine in
:mod:`repro.baselines.cutstate` and return a :class:`BaselineResult`.
"""

from repro.baselines.cutstate import CutState
from repro.baselines.result import BaselineResult
from repro.baselines.random_cut import random_cut
from repro.baselines.kernighan_lin import kernighan_lin
from repro.baselines.fiduccia_mattheyses import fiduccia_mattheyses
from repro.baselines.simulated_annealing import simulated_annealing, AnnealingSchedule
from repro.baselines.spectral import spectral_bisection
from repro.baselines.multilevel import CoarseLevel, coarsen_once, multilevel_bipartition

__all__ = [
    "CutState",
    "BaselineResult",
    "random_cut",
    "kernighan_lin",
    "fiduccia_mattheyses",
    "simulated_annealing",
    "AnnealingSchedule",
    "spectral_bisection",
    "multilevel_bipartition",
    "coarsen_once",
    "CoarseLevel",
]
