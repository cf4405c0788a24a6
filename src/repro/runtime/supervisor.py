"""Supervised worker pool: timeouts, crash/hang recovery, sequential fallback.

``ProcessPoolExecutor`` is the wrong tool for a fault-tolerant fan-out:
a worker killed by the OOM killer poisons the whole pool
(``BrokenProcessPool`` aborts every pending future), and a *hung* worker
is worse — the pool waits forever, with no per-task time bound.  This
module owns its worker processes instead, one short-lived forked process
per task, so the supervisor can:

* enforce a **per-task timeout** — a worker past it is SIGTERMed and the
  task retried;
* detect **crashes** (process died without reporting: segfault, OOM
  kill, ``os._exit`` — everything that surfaces as ``BrokenProcessPool``
  under an executor) and retry with a **deterministic seed advance**, so
  a retry explores a fresh rng stream but reruns are reproducible;
* stop launching at a **deadline** and report what finished;
* enforce a **per-worker memory budget** (``memory_limit_bytes``) — the
  child caps its own address space with ``RLIMIT_AS`` and converts the
  resulting ``MemoryError`` into a typed over-budget failure, while the
  supervisor polls ``/proc/<pid>/status`` RSS and SIGTERMs workers whose
  resident set exceeds the budget.  Over-budget tasks fail *terminally*:
  the allocation pattern is deterministic, so a retry would fail the
  same way, and an in-process rerun would OOM the parent — exactly the
  outcome the budget exists to prevent;
* **fall back to sequential** in-process execution — per task once its
  retry budget is exhausted, or wholesale when processes cannot be
  forked at all — with fault injection suppressed, so chaos cannot chase
  the run into its hardened path.

Tasks are ``(key, payload)`` pairs; results come back as
:class:`TaskResult` records plus a :class:`SupervisionReport` the caller
folds into its ``degraded`` contract.  An ``on_result`` callback fires
in the parent the moment each task reaches its final state — the hook
crash-durable journals (:mod:`repro.runtime.journal`) use to checkpoint
completed work before the run moves on.  Everything is recorded through
``repro.obs`` under ``runtime.supervisor.*``.

:meth:`SupervisedPool.map` may run in several threads at once (the
partition daemon calls it from each broker dispatcher); each call
supervises only its own tasks, and process creation is serialized so
no task's pipe leaks into a sibling's fork.

The pool requires the ``fork`` start method (payloads and shared state
are inherited, never pickled-in; only results cross the pipe).  On
platforms without it the pool degrades to pure sequential execution —
same results, no supervision.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as _wait_connections
from typing import Any, Callable

from repro import obs
from repro.runtime import faults, memory
from repro.runtime.deadline import Deadline

__all__ = [
    "SupervisedPool",
    "SupervisionReport",
    "TaskResult",
    "advance_seed",
]

#: Fixed odd stride (the 64-bit golden ratio) for the deterministic
#: retry seed-advance: attempt ``a`` of a task seeded ``s`` runs with
#: ``(s + a * stride) mod 2^63`` — a pure function of ``(s, a)``, so
#: retried runs remain reproducible while never replaying the rng stream
#: that just crashed or hung.
SEED_STRIDE = 0x9E3779B97F4A7C15

_SEED_MASK = (1 << 63) - 1

#: Held from a task's ``Pipe()`` until the parent has closed the child's
#: write end.  Without it, concurrent :meth:`SupervisedPool.map` calls
#: (the daemon runs one per dispatcher thread) can fork a sibling while
#: another task's write end is still open in the parent; the sibling
#: inherits it, and that task's crash shows up as EOF only when the
#: sibling exits.  Module-wide, because any fork can inherit the fd.
_SPAWN_LOCK = threading.Lock()


def advance_seed(seed: int, attempt: int) -> int:
    """The documented retry seed rule (attempt 0 returns ``seed`` itself)."""
    return (seed + attempt * SEED_STRIDE) & _SEED_MASK


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one supervised task after all recovery attempts.

    A failed task carries ``failure``, the kind of its last failure, set
    where the pool saw it happen (callers branch on it, never on the
    ``error`` text):

    * ``"spawn"`` — no worker process could be forked;
    * ``"crash"`` — the worker died without reporting (EOF on its pipe);
    * ``"hang"`` — the worker outlived the task timeout;
    * ``"memory"`` — over the memory budget (child ``MemoryError`` or
      parent-side RSS kill);
    * ``"deadline"`` — the pool's deadline cut the task;
    * ``"aborted"`` — :meth:`SupervisedPool.abort` cut the task;
    * ``"error"`` — the worker raised an exception.
    """

    key: Any
    value: Any = None
    ok: bool = False
    attempts: int = 0
    error: str | None = None
    sequential: bool = False
    failure: str | None = None

    @property
    def aborted(self) -> bool:
        """True when :meth:`SupervisedPool.abort` cut this task.

        The task was abandoned by the *pool*, not judged: callers must
        not treat the failure as a verdict on the task's content.
        """
        return self.failure == "aborted"


@dataclass
class SupervisionReport:
    """What the pool had to do to deliver the results."""

    workers: int = 0
    completed: int = 0
    failed: int = 0
    crashes: int = 0
    hangs: int = 0
    retries: int = 0
    sequential_fallbacks: int = 0
    memory_kills: int = 0
    peak_rss_bytes: int = 0
    deadline_expired: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when anything beyond plain parallel execution happened."""
        return bool(
            self.failed
            or self.crashes
            or self.hangs
            or self.retries
            or self.sequential_fallbacks
            or self.memory_kills
            or self.deadline_expired
        )

    def summary(self) -> str:
        parts = []
        if self.deadline_expired:
            parts.append("deadline expired")
        if self.crashes:
            parts.append(f"{self.crashes} worker crash(es)")
        if self.hangs:
            parts.append(f"{self.hangs} hung worker(s)")
        if self.memory_kills:
            parts.append(f"{self.memory_kills} over-memory-budget worker(s)")
        if self.retries:
            parts.append(f"{self.retries} retried task(s)")
        if self.sequential_fallbacks:
            parts.append(f"{self.sequential_fallbacks} sequential fallback(s)")
        if self.failed:
            parts.append(f"{self.failed} task(s) failed")
        return "; ".join(parts) if parts else "clean"


@dataclass
class _Running:
    process: multiprocessing.process.BaseProcess
    conn: Connection
    key: Any
    payload: Any
    attempt: int
    started: float
    peak_rss: int = 0


def _child_entry(
    conn: Connection,
    worker: Callable,
    payload: Any,
    memory_limit_bytes: int | None = None,
) -> None:
    """Worker-side wrapper: report a value or a typed error, then exit.

    With a memory budget the child caps its own address space first, so
    an over-budget allocation surfaces here as ``MemoryError`` and is
    reported as a *typed* over-budget failure (``"memory"`` status) —
    distinguishable from ordinary crashes because the supervisor must
    neither retry it nor rerun it in the parent process.
    """
    if memory_limit_bytes is not None:
        memory.apply_address_space_limit(memory_limit_bytes)
    try:
        value = worker(payload)
        message = ("ok", value)
    except MemoryError as exc:
        budget = (
            f"the {memory.format_bytes(memory_limit_bytes)} memory budget"
            if memory_limit_bytes is not None
            else "available memory"
        )
        message = ("memory", f"worker exceeded {budget}: {type(exc).__name__}: {exc}")
    except BaseException as exc:  # noqa: BLE001 - the whole point is to report it
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except Exception:  # pragma: no cover - parent gone; nothing to report to
        pass
    finally:
        conn.close()


class SupervisedPool:
    """Run tasks across forked workers with supervision and recovery.

    Parameters
    ----------
    worker:
        ``worker(payload) -> value``, executed in a forked child (and
        in-process, under :func:`repro.runtime.faults.suppressed`, on the
        sequential fallback).  The value must be picklable.
    max_workers:
        Concurrent worker processes.
    task_timeout:
        Seconds a single attempt may run before it is declared hung,
        SIGTERMed and retried (``None`` disables hang detection; the
        deadline still bounds the whole map).
    max_retries:
        Process re-launches per task after its first attempt.  When the
        budget is exhausted the task gets one final sequential attempt.
    deadline:
        Overall budget.  When it expires the pool stops launching,
        terminates in-flight workers, and reports the unfinished tasks
        as failed — the caller degrades instead of blocking.
    reseed:
        ``reseed(payload, attempt) -> payload`` for retries; defaults to
        passing the payload through unchanged.  Callers whose payloads
        embed rng seeds should derive the new seed with
        :func:`advance_seed`.
    memory_limit_bytes:
        Per-worker memory budget.  Applied as ``RLIMIT_AS`` inside the
        forked child (over-budget allocations fail there as a typed
        task failure) and enforced from the parent by polling worker
        RSS (over-budget workers are SIGTERMed).  Over-budget tasks are
        never retried and never rerun in-process.  ``None`` disables
        governance; peak RSS is still tracked where ``/proc`` exists.
    on_result:
        ``on_result(task_result)`` invoked in the parent the moment a
        task reaches its *final* :class:`TaskResult` (retries do not
        fire it).  Journaling callers checkpoint completed work here;
        exceptions from the callback propagate and abort the map.
    sequential_fallback:
        When ``False``, a task that exhausts its retry budget (or whose
        worker cannot be spawned) becomes a failed :class:`TaskResult`
        instead of getting the hardened in-process attempt.  Long-lived
        parents — the partition daemon above all — set this: running a
        crashing task in the serving process would trade one lost
        request for the process the budget and timeout exist to protect.
        (On platforms without the ``fork`` start method the pool still
        degrades to sequential execution regardless — there is no worker
        process to protect the parent with in the first place.)
    poll_interval:
        Supervisor wake-up granularity (also the hang/deadline/memory
        detection latency bound).
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        *,
        max_workers: int,
        task_timeout: float | None = None,
        max_retries: int = 2,
        deadline: Deadline | None = None,
        reseed: Callable[[Any, int], Any] | None = None,
        memory_limit_bytes: int | None = None,
        on_result: Callable[[TaskResult], None] | None = None,
        sequential_fallback: bool = True,
        poll_interval: float = 0.02,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if memory_limit_bytes is not None and memory_limit_bytes <= 0:
            raise ValueError(
                f"memory_limit_bytes must be positive, got {memory_limit_bytes}"
            )
        self.worker = worker
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.deadline = deadline
        self.reseed = reseed or (lambda payload, attempt: payload)
        self.memory_limit_bytes = memory_limit_bytes
        self.on_result = on_result
        self.sequential_fallback = sequential_fallback
        self.poll_interval = poll_interval
        self._abort_message: str | None = None

    # ------------------------------------------------------------------

    def abort(self, message: str = "pool aborted") -> None:
        """Ask an in-flight (and any future) :meth:`map` to stop now.

        Running workers are SIGTERMed and their tasks — plus everything
        still queued — fail with ``message`` in the error string.  The
        hook exists for graceful drain: a daemon past its drain timeout
        must cut the surviving work *without* waiting out per-task
        timeouts.  Sticky by design — a pool that has been aborted is
        shutting down; there is no un-abort.
        """
        self._abort_message = message

    # ------------------------------------------------------------------

    def map(self, tasks: list[tuple[Any, Any]]) -> tuple[list[TaskResult], SupervisionReport]:
        """Execute every task; returns results in input order plus the report."""
        report = SupervisionReport(workers=self.max_workers)
        results: dict[Any, TaskResult] = {}
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = None

        with obs.span("runtime.supervisor.map"):
            if ctx is None:
                report.sequential_fallbacks += len(tasks)
                obs.count("runtime.supervisor.sequential_fallbacks", len(tasks))
                for key, payload in tasks:
                    self._finish(results, self._run_sequential(key, payload, 0, report))
            else:
                self._run_supervised(ctx, tasks, results, report)

        obs.count("runtime.supervisor.tasks", len(tasks))
        if report.peak_rss_bytes:
            obs.gauge("runtime.worker.peak_rss", report.peak_rss_bytes)
        ordered = [results[key] for key, _ in tasks]
        report.completed = sum(1 for r in ordered if r.ok)
        report.failed = len(ordered) - report.completed
        return ordered, report

    # ------------------------------------------------------------------

    def _finish(self, results: dict[Any, TaskResult], result: TaskResult) -> None:
        """Commit a task's final state and fire the ``on_result`` checkpoint."""
        results[result.key] = result
        if self.on_result is not None:
            self.on_result(result)

    # ------------------------------------------------------------------

    def _run_supervised(
        self,
        ctx,
        tasks: list[tuple[Any, Any]],
        results: dict[Any, TaskResult],
        report: SupervisionReport,
    ) -> None:
        queue: deque[tuple[Any, Any, int]] = deque((key, payload, 0) for key, payload in tasks)
        running: dict[Connection, _Running] = {}
        deadline = self.deadline

        def reap(rec: _Running) -> None:
            rec.conn.close()
            rec.process.join(timeout=5.0)

        def handle_failure(rec: _Running, reason: str, failure: str) -> None:
            next_attempt = rec.attempt + 1
            if (
                next_attempt <= self.max_retries
                and self._abort_message is None
                and not (deadline and deadline.expired())
            ):
                report.retries += 1
                obs.count("runtime.supervisor.retries")
                queue.append((rec.key, self.reseed(rec.payload, next_attempt), next_attempt))
            elif failure == "hang" or not self.sequential_fallback:
                # Never rerun a hung task in-process (the parent cannot
                # SIGTERM itself, so an in-process hang would be
                # unbounded) — and never rerun anything in-process when
                # the caller disabled the fallback to protect itself.
                self._finish(
                    results,
                    TaskResult(
                        key=rec.key, attempts=next_attempt, error=reason, failure=failure
                    ),
                )
            else:
                # Retry budget exhausted (or no time to retry in a fresh
                # process): one hardened in-process attempt, then give up.
                self._finish(
                    results,
                    self._run_sequential(
                        rec.key, rec.payload, next_attempt, report, prior_error=reason
                    ),
                )

        def handle_memory_failure(rec: _Running, reason: str) -> None:
            # Terminal by design: the allocation pattern is deterministic
            # (a retry fails identically) and an in-process rerun would
            # put the over-budget allocation in the *parent* — the one
            # process the budget exists to protect.
            report.memory_kills += 1
            report.errors.append(reason)
            obs.count("runtime.supervisor.memory_kills")
            self._finish(
                results,
                TaskResult(
                    key=rec.key, attempts=rec.attempt + 1, error=reason, failure="memory"
                ),
            )

        while queue or running:
            abort_message = self._abort_message
            expired = deadline is not None and deadline.expired()
            if expired or abort_message is not None:
                if expired:
                    report.deadline_expired = True
                    obs.count("runtime.supervisor.deadline_expirations")
                reason = abort_message if abort_message is not None else "deadline expired"
                failure = "aborted" if abort_message is not None else "deadline"
                for rec in running.values():
                    rec.process.terminate()
                    reap(rec)
                    self._finish(
                        results,
                        TaskResult(
                            key=rec.key,
                            attempts=rec.attempt + 1,
                            error=f"{reason} mid-execution",
                            failure=failure,
                        ),
                    )
                running.clear()
                for key, _payload, attempt in queue:
                    self._finish(
                        results,
                        TaskResult(
                            key=key,
                            attempts=attempt,
                            error=f"{reason} before execution",
                            failure=failure,
                        ),
                    )
                queue.clear()
                break

            while queue and len(running) < self.max_workers:
                key, payload, attempt = queue.popleft()
                try:
                    with _SPAWN_LOCK:
                        parent_conn, child_conn = ctx.Pipe(duplex=False)
                        process = ctx.Process(
                            target=_child_entry,
                            args=(child_conn, self.worker, payload, self.memory_limit_bytes),
                        )
                        process.start()
                        child_conn.close()
                except OSError as exc:
                    # Cannot fork at all (fd/process limits): the pool is
                    # effectively broken — run this task sequentially,
                    # unless the caller forbade in-process execution.
                    obs.count("runtime.supervisor.spawn_failures")
                    if not self.sequential_fallback:
                        self._finish(
                            results,
                            TaskResult(
                                key=key,
                                attempts=attempt + 1,
                                error=f"spawn failed: {exc}",
                                failure="spawn",
                            ),
                        )
                        continue
                    self._finish(
                        results,
                        self._run_sequential(
                            key, payload, attempt, report,
                            prior_error=f"spawn failed: {exc}",
                        ),
                    )
                    continue
                running[parent_conn] = _Running(
                    process=process,
                    conn=parent_conn,
                    key=key,
                    payload=payload,
                    attempt=attempt,
                    started=time.monotonic(),
                )

            if not running:
                continue

            for conn in _wait_connections(list(running), timeout=self.poll_interval):
                rec = running.pop(conn)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    status, value = None, None
                reap(rec)
                if status == "ok":
                    self._finish(
                        results,
                        TaskResult(
                            key=rec.key, value=value, ok=True, attempts=rec.attempt + 1
                        ),
                    )
                elif status == "memory":
                    handle_memory_failure(rec, str(value))
                elif status == "error":
                    report.crashes += 1
                    report.errors.append(str(value))
                    obs.count("runtime.supervisor.worker_errors")
                    handle_failure(rec, str(value), "error")
                else:
                    exitcode = rec.process.exitcode
                    reason = f"worker died without a result (exitcode {exitcode})"
                    report.crashes += 1
                    report.errors.append(reason)
                    obs.count("runtime.supervisor.crashes")
                    handle_failure(rec, reason, "crash")

            if self.task_timeout is not None:
                now = time.monotonic()
                for conn in [
                    c for c, rec in running.items() if now - rec.started > self.task_timeout
                ]:
                    rec = running.pop(conn)
                    rec.process.terminate()
                    reap(rec)
                    reason = f"worker hung past the {self.task_timeout}s task timeout"
                    report.hangs += 1
                    report.errors.append(reason)
                    obs.count("runtime.supervisor.hangs")
                    handle_failure(rec, reason, "hang")

            if memory.rss_supported():
                # Track peak RSS for the report, and — with a budget —
                # SIGTERM workers whose *resident* set exceeds it (the
                # parent-side backstop; RLIMIT_AS inside the child
                # cannot see lazily-touched mappings grow).
                over_budget = []
                for conn, rec in running.items():
                    rss = memory.rss_bytes(rec.process.pid)
                    if rss is None:
                        continue
                    rec.peak_rss = max(rec.peak_rss, rss)
                    report.peak_rss_bytes = max(report.peak_rss_bytes, rss)
                    if (
                        self.memory_limit_bytes is not None
                        and rss > self.memory_limit_bytes
                    ):
                        over_budget.append(conn)
                for conn in over_budget:
                    rec = running.pop(conn)
                    rec.process.terminate()
                    reap(rec)
                    reason = (
                        f"worker RSS {memory.format_bytes(rec.peak_rss)} exceeded "
                        f"the {memory.format_bytes(self.memory_limit_bytes)} "
                        "memory budget"
                    )
                    handle_memory_failure(rec, reason)

    # ------------------------------------------------------------------

    def _run_sequential(
        self,
        key: Any,
        payload: Any,
        attempt: int,
        report: SupervisionReport,
        prior_error: str | None = None,
    ) -> TaskResult:
        """Hardened in-process attempt (fault injection suppressed)."""
        report.sequential_fallbacks += 1
        obs.count("runtime.supervisor.sequential_fallbacks")
        try:
            with faults.suppressed():
                value = self.worker(self.reseed(payload, attempt) if attempt else payload)
        except Exception as exc:  # noqa: BLE001 - recorded, not re-raised
            error = f"{type(exc).__name__}: {exc}"
            if prior_error:
                error = f"{prior_error}; sequential fallback also failed: {error}"
            report.errors.append(error)
            return TaskResult(
                key=key, attempts=attempt + 1, error=error, sequential=True, failure="error"
            )
        return TaskResult(key=key, value=value, ok=True, attempts=attempt + 1, sequential=True)
