"""``repro.runtime`` — fault-tolerant execution for long-running paths.

Five pieces, used together by Algorithm I multi-start, every baseline
engine, the portfolio, and the bench harness:

* :class:`Deadline` — a wall-clock budget checked at cooperative
  checkpoints; on expiry a run returns its best-so-far feasible cut with
  ``degraded=True`` and a reason instead of blowing the budget.
* :class:`SupervisedPool` — a process pool with per-task timeouts,
  crash/hang detection, bounded retry with a deterministic seed advance
  (:func:`advance_seed`), per-worker memory budgets, and automatic
  sequential fallback.
* :class:`RunJournal` — an append-only, fsynced JSONL checkpoint log
  with a settings fingerprint, making bench sweeps and multi-start runs
  resumable after the orchestrating process itself is killed.  It is
  one of two record schemas on the one record log,
  :mod:`repro.runtime.recordlog`, which owns the file; the daemon's
  state log (:mod:`repro.server.persist`) is the other.
* :mod:`repro.runtime.memory` — the memory-governance primitives
  (``RLIMIT_AS`` in the child, ``/proc`` RSS polling in the parent).
* :mod:`repro.runtime.faults` — env/config-driven probabilistic fault
  injection at named sites, driving the chaos test suite and the CI
  chaos job.

See ``docs/ROBUSTNESS.md`` for the degradation contract, the journal
format, and the fault site catalog.
"""

from repro.runtime import faults, memory
from repro.runtime.deadline import Deadline, DeadlineExpired
from repro.runtime.journal import (
    JournalError,
    JournalFingerprintError,
    JournalFormatError,
    RunJournal,
    settings_fingerprint,
)
from repro.runtime.supervisor import (
    SEED_STRIDE,
    SupervisedPool,
    SupervisionReport,
    TaskResult,
    advance_seed,
)

__all__ = [
    "Deadline",
    "DeadlineExpired",
    "JournalError",
    "JournalFingerprintError",
    "JournalFormatError",
    "RunJournal",
    "SEED_STRIDE",
    "SupervisedPool",
    "SupervisionReport",
    "TaskResult",
    "advance_seed",
    "faults",
    "memory",
    "settings_fingerprint",
]
