"""Supervised worker pool: timeouts, crash/hang recovery, sequential fallback.

``ProcessPoolExecutor`` is the wrong tool for a fault-tolerant fan-out:
a worker killed by the OOM killer poisons the whole pool
(``BrokenProcessPool`` aborts every pending future), and a *hung* worker
is worse — the pool waits forever, with no per-task time bound.  This
module owns its worker processes instead.  It forks a worker when a task
finds none idle, keeps it, and sends it the next task over its pipe, so
a long-lived caller forks once per worker slot rather than once per
task.  The supervisor can:

* enforce a **per-task timeout** — a worker past it is SIGTERMed and the
  task retried;
* detect **crashes** (process died without reporting: segfault, OOM
  kill, ``os._exit`` — everything that surfaces as ``BrokenProcessPool``
  under an executor) and retry with a **deterministic seed advance**, so
  a retry explores a fresh rng stream but reruns are reproducible;
* stop launching at a **deadline** and report what finished;
* enforce a **per-worker memory budget** (``memory_limit_bytes``) — the
  worker caps its own address space with ``RLIMIT_AS`` and converts the
  resulting ``MemoryError`` into a typed over-budget failure, while the
  supervisor polls ``/proc/<pid>/status`` RSS and SIGTERMs workers whose
  resident set exceeds the budget.  Over-budget tasks fail *terminally*
  once a fresh worker has failed them: the allocation pattern is
  deterministic, so a retry would fail the same way, and an in-process
  rerun would OOM the parent — exactly the outcome the budget exists to
  prevent.  A worker that had already run a task may be over budget on
  its own leftovers, so its task gets one more try in a fresh worker;
* **fall back to sequential** in-process execution — per task once its
  retry budget is exhausted, or wholesale when processes cannot be
  forked at all — with fault injection suppressed, so chaos cannot chase
  the run into its hardened path.

A worker is replaced after any failure (crash, hang, error, memory,
deadline or abort); only a worker whose task succeeded is reused.  Each
task travels with :func:`repro.runtime.faults.current_plan`, so a fault
plan configured after a worker was forked reaches its next task.  A
worker releases every descriptor it inherited except its own pipe and
the standard streams (above all a daemon's listening socket, which must
not outlive the daemon), resets ``SIGTERM`` to its default and ignores
``SIGINT`` (its parent decides when it ends), and exits when its pipe
reaches EOF.  :meth:`SupervisedPool.close` — or leaving a ``with``
block — ends the idle workers at once and the busy ones as their tasks
finish; callers whose workers inherit per-run state close the pool when
the run ends.

Tasks are ``(key, payload)`` pairs; results come back as
:class:`TaskResult` records plus a :class:`SupervisionReport` the caller
folds into its ``degraded`` contract.  An ``on_result`` callback fires
in the parent the moment each task reaches its final state — the hook
crash-durable journals (:mod:`repro.runtime.journal`) use to checkpoint
completed work before the run moves on.  Everything is recorded through
``repro.obs`` under ``runtime.supervisor.*``; ``runtime.supervisor.spawns``
against ``runtime.supervisor.tasks`` shows how often workers are reused.

:meth:`SupervisedPool.map` may run in several threads at once (the
partition daemon calls it from each broker dispatcher).  Each call
supervises only its own tasks: idle workers are shared, but a call that
finds none idle forks its own instead of waiting behind another call's
tasks.  Process creation is serialized so no task's pipe leaks into a
sibling's fork.

The pool requires ``os.fork``: the worker function and any state it
reads are inherited when the worker is forked, and only payloads and
results are pickled across the pipe.  On platforms without it the pool
degrades to pure sequential execution — same results, no supervision.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe, wait as _wait_connections
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

#: Held from a worker's ``Pipe()`` until the parent has closed the
#: child's end.  Without it, concurrent :meth:`SupervisedPool.map` calls
#: (the daemon runs one per dispatcher thread) can fork a sibling while
#: another worker's end is still open in the parent; the sibling
#: inherits it, and that worker's crash shows up as EOF only when the
#: sibling lets go of it.  Module-wide, because any fork can inherit the
#: fd.
_SPAWN_LOCK = threading.Lock()

#: Seconds a stopped worker gets to exit before it is SIGKILLed.
_REAP_TIMEOUT = 5.0


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


def _reap(pid: int, timeout: float = _REAP_TIMEOUT) -> int | None:
    """Wait up to ``timeout`` seconds for child ``pid`` to exit.

    Returns its exit code (``-signum`` when a signal ended it, as
    ``multiprocessing`` reports it), or ``None`` if it is still running.
    """
    end = time.monotonic() + timeout
    delay = 0.0002
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() >= end:
            return None
        time.sleep(delay)
        delay = min(2 * delay, 0.02)


@dataclass
class _Worker:
    """A forked worker process and the parent's end of its pipe."""

    pid: int
    conn: Connection
    generation: int
    tasks_done: int = 0
    stopped: bool = False
    exitcode: int | None = None

    def stop(self, sig: int | None = None) -> int | None:
        """End the worker and reap it (once); returns its exit code.

        Closing the pipe ends an idle worker (it exits at EOF); ``sig``
        (SIGTERM) ends one that is still running a task.  A worker that
        outlives the grace period is SIGKILLed.
        """
        if not self.stopped:
            self.stopped = True
            self.conn.close()
            # Until we reap it the pid stays ours; if something else
            # reaped it, it may name another process: stop signalling.
            for signum in (sig, signal.SIGKILL):
                try:
                    if signum is not None:
                        os.kill(self.pid, signum)
                    self.exitcode = _reap(self.pid)
                except (ProcessLookupError, ChildProcessError):
                    break
                if self.exitcode is not None:
                    break
        return self.exitcode


def _stop_all(workers: list[_Worker], owner: int) -> None:
    """Close every worker's pipe, then reap them (they exit in parallel).

    ``owner`` is the pid that forked them: a forked child that inherited
    the pool (and so this list) must neither close nor reap its
    parent's workers.
    """
    if os.getpid() != owner:
        return
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        worker.stop()


@dataclass
class _Running:
    worker: _Worker
    key: Any
    payload: Any
    attempt: int
    started: float
    peak_rss: int = 0


def _run_task(worker: Callable, payload: Any, memory_limit_bytes: int | None) -> tuple:
    """Worker side: one task's ``(status, value)`` report.

    With a memory budget an over-budget allocation surfaces here as
    ``MemoryError`` and is reported as a *typed* over-budget failure
    (``"memory"`` status) — distinguishable from ordinary crashes
    because the supervisor must neither retry it nor rerun it in the
    parent process.
    """
    try:
        return ("ok", worker(payload))
    except MemoryError as exc:
        budget = (
            f"the {memory.format_bytes(memory_limit_bytes)} memory budget"
            if memory_limit_bytes is not None
            else "available memory"
        )
        return ("memory", f"worker exceeded {budget}: {type(exc).__name__}: {exc}")
    except BaseException as exc:  # noqa: BLE001 - the whole point is to report it
        return ("error", f"{type(exc).__name__}: {exc}")


def _worker_main(conn: Connection, worker: Callable, memory_limit_bytes: int | None) -> None:
    """A forked worker's life: run each task its pipe brings until EOF.

    It first lets go of every inherited descriptor but its pipe and the
    standard streams, so a parent's listening socket or a sibling's pipe
    never outlives the parent's own use of it.
    """
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if memory_limit_bytes is not None:
        memory.apply_address_space_limit(memory_limit_bytes)
    while True:
        try:
            plan, payload = conn.recv()
        except EOFError:  # the pool closed this worker
            return
        if plan != faults.current_plan():
            faults.configure(plan)
        conn.send(_run_task(worker, payload, memory_limit_bytes))


def _flush_std_streams() -> None:
    """Flush buffered stdio so a fork cannot write it out a second time."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # None, closed, or a gone reader
            pass


class SupervisedPool:
    """Run tasks across reused forked workers with supervision and recovery.

    Use it as a context manager (or call :meth:`close`) so its workers
    end with the run that created them.

    Parameters
    ----------
    worker:
        ``worker(payload) -> value``, executed in a forked child (and
        in-process, under :func:`repro.runtime.faults.suppressed`, on the
        sequential fallback).  Payload and value must be picklable; the
        function itself is inherited when a worker is forked.
    max_workers:
        Concurrent worker processes per :meth:`map` call, and the most
        idle workers the pool keeps.
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
        Per-worker memory budget.  Applied as ``RLIMIT_AS`` inside each
        forked worker (over-budget allocations fail there as a typed
        task failure) and enforced from the parent by polling worker
        RSS (over-budget workers are SIGTERMed).  A task over budget in
        a fresh worker is never retried and never rerun in-process.
        ``None`` disables governance; peak RSS is still tracked where
        ``/proc`` exists.
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
        (On platforms without ``os.fork`` the pool still degrades to
        sequential execution regardless — there is no worker process to
        protect the parent with in the first place.)
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
        # Idle workers, shared by concurrent maps; a worker forked before
        # the last close() (an older generation) is stopped, not kept.
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._generation = 0
        self._owner = os.getpid()
        # A pool dropped without close() still ends its idle workers.
        weakref.finalize(self, _stop_all, self._idle, self._owner)

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

    def close(self) -> None:
        """End every idle worker now, and each busy one when its task ends.

        The pool stays usable: a later :meth:`map` forks fresh workers.
        """
        with self._lock:
            self._generation += 1
            idle = self._idle[:]
            self._idle.clear()
        _stop_all(idle, self._owner)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def map(self, tasks: list[tuple[Any, Any]]) -> tuple[list[TaskResult], SupervisionReport]:
        """Execute every task; returns results in input order plus the report."""
        report = SupervisionReport(workers=self.max_workers)
        results: dict[Any, TaskResult] = {}

        with obs.span("runtime.supervisor.map"):
            if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX platforms
                report.sequential_fallbacks += len(tasks)
                obs.count("runtime.supervisor.sequential_fallbacks", len(tasks))
                for key, payload in tasks:
                    self._finish(results, self._run_sequential(key, payload, 0, report))
            else:
                self._run_supervised(tasks, results, report)

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

    def _spawn(self) -> _Worker:
        """Fork a worker (raises ``OSError`` when no process can be made)."""
        with _SPAWN_LOCK:
            parent_conn, child_conn = Pipe()
            try:
                _flush_std_streams()
                pid = os.fork()
                if pid == 0:  # pragma: no cover - runs in the forked child
                    code = 1
                    try:
                        _worker_main(child_conn, self.worker, self.memory_limit_bytes)
                        code = 0
                    finally:
                        _flush_std_streams()  # what its tasks printed
                        os._exit(code)
            except OSError:
                parent_conn.close()
                raise
            finally:
                child_conn.close()
        obs.count("runtime.supervisor.spawns")
        return _Worker(pid=pid, conn=parent_conn, generation=self._generation)

    def _acquire(self, fresh: bool) -> _Worker:
        """An idle worker (unless ``fresh``), else a newly forked one."""
        while not fresh:
            with self._lock:
                if not self._idle:
                    break
                worker = self._idle.pop()
            if not worker.conn.poll():  # an idle pipe is silent unless its worker died
                return worker
            worker.stop()
        return self._spawn()

    def _release(self, worker: _Worker) -> None:
        """Keep a worker whose task succeeded, unless the pool has enough."""
        worker.tasks_done += 1
        with self._lock:
            if worker.generation == self._generation and len(self._idle) < self.max_workers:
                self._idle.append(worker)
                return
        worker.stop()

    # ------------------------------------------------------------------

    def _run_supervised(
        self,
        tasks: list[tuple[Any, Any]],
        results: dict[Any, TaskResult],
        report: SupervisionReport,
    ) -> None:
        # (key, payload, attempt, fresh): ``fresh`` asks for a newly
        # forked worker (a memory failure's one rerun).
        queue: deque[tuple[Any, Any, int, bool]] = deque(
            (key, payload, 0, False) for key, payload in tasks
        )
        running: dict[Connection, _Running] = {}
        try:
            self._supervise(queue, running, results, report)
        finally:
            # Only an exception (an on_result callback raising) leaves
            # work here; its workers must not outlive the map.
            for rec in running.values():
                rec.worker.stop(signal.SIGTERM)

    def _supervise(
        self,
        queue: deque,
        running: dict[Connection, _Running],
        results: dict[Any, TaskResult],
        report: SupervisionReport,
    ) -> None:
        deadline = self.deadline

        def handle_failure(rec: _Running, reason: str, failure: str) -> None:
            next_attempt = rec.attempt + 1
            if (
                next_attempt <= self.max_retries
                and self._abort_message is None
                and not (deadline and deadline.expired())
            ):
                report.retries += 1
                obs.count("runtime.supervisor.retries")
                queue.append(
                    (rec.key, self.reseed(rec.payload, next_attempt), next_attempt, False)
                )
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

        def handle_memory_failure(rec: _Running, reason: str, reused: bool) -> None:
            if reused:
                # The worker had run other tasks, whose leftovers may be
                # what pushed it over: the same attempt reruns in a
                # fresh worker, where a task always ran before workers
                # were reused, so it is no retry and no verdict yet.
                obs.count("runtime.supervisor.memory_reruns")
                queue.append((rec.key, rec.payload, rec.attempt, True))
                return
            # Terminal by design: the allocation pattern is deterministic
            # (a retry fails identically) and an in-process rerun would
            # put the over-budget allocation in the *parent* — the one
            # process the budget exists to protect.
            report.errors.append(reason)
            report.memory_kills += 1
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
                    rec.worker.stop(signal.SIGTERM)
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
                for key, _payload, attempt, _fresh in queue:
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
                key, payload, attempt, fresh = queue.popleft()
                try:
                    worker = self._acquire(fresh)
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
                rec = _Running(
                    worker=worker,
                    key=key,
                    payload=payload,
                    attempt=attempt,
                    started=time.monotonic(),
                )
                running[worker.conn] = rec
                try:
                    worker.conn.send((faults.current_plan(), payload))
                except OSError:
                    pass  # the worker is gone; its EOF reports the crash

            if not running:
                continue

            for conn in _wait_connections(list(running), timeout=self.poll_interval):
                rec = running.pop(conn)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    status, value = None, None
                if status == "ok":
                    self._release(rec.worker)
                    self._finish(
                        results,
                        TaskResult(
                            key=rec.key, value=value, ok=True, attempts=rec.attempt + 1
                        ),
                    )
                    continue
                exitcode = rec.worker.stop()
                if status == "memory":
                    handle_memory_failure(rec, str(value), rec.worker.tasks_done > 0)
                elif status == "error":
                    report.crashes += 1
                    report.errors.append(str(value))
                    obs.count("runtime.supervisor.worker_errors")
                    handle_failure(rec, str(value), "error")
                else:
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
                    rec.worker.stop(signal.SIGTERM)
                    reason = f"worker hung past the {self.task_timeout}s task timeout"
                    report.hangs += 1
                    report.errors.append(reason)
                    obs.count("runtime.supervisor.hangs")
                    handle_failure(rec, reason, "hang")

            if memory.rss_supported():
                # Track peak RSS for the report, and — with a budget —
                # SIGTERM workers whose *resident* set exceeds it (the
                # parent-side backstop; RLIMIT_AS inside the worker
                # cannot see lazily-touched mappings grow).
                over_budget = []
                for conn, rec in running.items():
                    rss = memory.rss_bytes(rec.worker.pid)
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
                    rec.worker.stop(signal.SIGTERM)
                    reason = (
                        f"worker RSS {memory.format_bytes(rec.peak_rss)} exceeded "
                        f"the {memory.format_bytes(self.memory_limit_bytes)} "
                        "memory budget"
                    )
                    handle_memory_failure(rec, reason, rec.worker.tasks_done > 0)

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
