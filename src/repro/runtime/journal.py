"""Append-only run journals: crash-durable checkpoint/resume for long runs.

A long bench sweep or 50-start Algorithm I run loses *everything* when
the orchestrating process is killed — every completed (instance, engine)
pair, every finished start.  A :class:`RunJournal` makes those runs
resumable: each completed unit of work is appended to a JSONL file and
made durable **before** the run moves on, so after a SIGKILL the journal
holds exactly the work that finished, and a ``--resume`` run replays it
instead of recomputing.

File format (one JSON object per line)::

    {"journal": 1, "task": "bench", "fingerprint": "<sha256>", "settings": {...}}
    {"key": ["planted300", "fm"], "value": {...}}
    {"key": ["planted300", "kl"], "value": {...}}

* The **header** carries a fingerprint — a SHA-256 over the
  canonicalized *result-affecting* settings (seed, starts, cases,
  engines, ... — never worker counts or timeouts, which cannot change a
  deterministic result).  Resume refuses a journal whose fingerprint
  does not match the current invocation: replaying records produced
  under different settings would silently fabricate a payload no real
  run could produce.
* **Appends are durable per record**, so a crash loses at most the
  record being written.
* **A torn final line is tolerated**: a record is durable only once
  its newline is on disk, so the one partial record a mid-``write``
  crash can leave is dropped, and cut from the file on resume; the
  journal is then appended to from the last durable record.  A
  malformed line anywhere *else* is corruption and raises.

The file itself — line encoding, durable appends, the torn tail — is
the one record log of :mod:`repro.runtime.recordlog`, which the
daemon's state log shares; this module is the journal's record schema:
the header, the fingerprint refusal, the ``(key, value)`` record shape,
and the policy that mid-file corruption is fatal.

Errors extend the typed, context-carrying style of
:class:`repro.io.errors.ParseError` (PR 3): :class:`JournalError` is a
``ValueError`` with subclasses per failure class, each message carrying
the journal path.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.runtime.recordlog import (
    LogContents,
    RecordLog,
    RecordLogError,
    encode_line,
    read_log,
)

__all__ = [
    "JournalError",
    "JournalFingerprintError",
    "JournalFormatError",
    "RunJournal",
    "settings_fingerprint",
]

#: Bumped when the on-disk record shapes change incompatibly, or when the
#: recorded results would no longer equal a fresh run's; resume refuses a
#: journal written by a different journal schema.  Schema 2: Algorithm
#: I's cuts follow the dual's ascending slot order, so a schema-1 journal
#: holds cuts a fresh run no longer gives.
JOURNAL_SCHEMA_VERSION = 2


class JournalError(RecordLogError):
    """Base class for run-journal failures (a ``ValueError``, like ParseError).

    Attributes
    ----------
    message:
        The bare problem description (no location prefix).
    path:
        The journal file involved, when known.
    """


class JournalFormatError(JournalError):
    """The journal file is malformed beyond the tolerated torn tail."""


class JournalFingerprintError(JournalError):
    """The journal was written under different result-affecting settings."""


def settings_fingerprint(settings: dict) -> str:
    """SHA-256 over the canonical JSON form of a settings dict.

    ``settings`` must be JSON-serializable; keys are sorted so dict
    construction order cannot change the fingerprint.
    """
    try:
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise JournalError(f"settings are not JSON-serializable: {exc}") from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunJournal:
    """An open, append-only run journal.

    Use :meth:`create` for a fresh run and :meth:`resume` to reopen an
    interrupted one; both return a journal ready for :meth:`record`
    calls.  The journal owns its file handle — :meth:`close` it (or use
    it as a context manager) when the run ends.
    """

    def __init__(self, path: Path, log: RecordLog, task: str, fingerprint: str) -> None:
        self.path = path
        self._log = log
        self.task = task
        self.fingerprint = fingerprint

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def create(cls, path: str | os.PathLike, task: str, settings: dict) -> "RunJournal":
        """Start a fresh journal at ``path`` (truncating any existing file)."""
        path = Path(path)
        fingerprint = settings_fingerprint(settings)
        header = {
            "journal": JOURNAL_SCHEMA_VERSION,
            "task": task,
            "fingerprint": fingerprint,
            "settings": settings,
        }
        try:
            log = RecordLog.create(path, header)
        except OSError as exc:
            raise JournalError(f"cannot create journal: {exc}", path=path) from exc
        return cls(path, log, task, fingerprint)

    @classmethod
    def resume(
        cls, path: str | os.PathLike, task: str, settings: dict
    ) -> tuple["RunJournal", list[tuple[Any, Any]]]:
        """Reopen ``path`` for appending; returns ``(journal, records)``.

        Verifies the header fingerprint against ``settings`` (raising
        :class:`JournalFingerprintError` on mismatch), drops a torn
        final line left by a writer that died mid-append (cutting it
        from the file), and returns the durable ``(key, value)``
        records in append order.
        """
        path = Path(path)
        fingerprint = settings_fingerprint(settings)
        try:
            contents = read_log(path)
        except OSError as exc:
            raise JournalError(f"cannot read journal: {exc}", path=path) from exc
        header, records = cls._parse(path, contents)
        if header.get("journal") != JOURNAL_SCHEMA_VERSION:
            raise JournalFormatError(
                f"journal schema {header.get('journal')!r} is not "
                f"{JOURNAL_SCHEMA_VERSION} (written by an incompatible version)",
                path=path,
            )
        if header.get("task") != task:
            raise JournalFingerprintError(
                f"journal records a {header.get('task')!r} run, not {task!r}",
                path=path,
            )
        if header.get("fingerprint") != fingerprint:
            changed = _settings_diff(header.get("settings"), settings)
            raise JournalFingerprintError(
                "journal settings fingerprint mismatch "
                f"({header.get('fingerprint')} != {fingerprint}); resuming would "
                "replay records from a different run"
                + (f" — differing settings: {changed}" if changed else ""),
                path=path,
            )
        try:
            log = RecordLog.reopen(path, contents.durable)
        except OSError as exc:
            raise JournalError(f"cannot reopen journal: {exc}", path=path) from exc
        return cls(path, log, task, fingerprint), records

    @staticmethod
    def _parse(
        path: Path, contents: LogContents
    ) -> tuple[dict, list[tuple[Any, Any]]]:
        """Check the read log's shape; returns ``(header, records)``.

        Any malformed line before the torn tail raises
        :class:`JournalFormatError` with its 1-based line number: replay
        data must be perfect or refused.
        """
        if contents.corrupt:
            lineno, reason = contents.corrupt[0]
            raise JournalFormatError(
                f"line {lineno}: malformed journal record: {reason}", path=path
            )
        header = contents.header
        if header is None and contents.size == 0:
            raise JournalFormatError("empty journal (no header line)", path=path)
        if header is None:
            raise JournalFormatError(
                "no durable header line (journal truncated at birth)", path=path
            )
        if "journal" not in header:
            raise JournalFormatError(
                "line 1: first line is not a journal header", path=path
            )
        records: list[tuple[Any, Any]] = []
        for lineno, obj in contents.records:
            if "key" not in obj:
                raise JournalFormatError(
                    f"line {lineno}: record without a 'key' field", path=path
                )
            records.append((obj["key"], obj.get("value")))
        return header, records

    # ------------------------------------------------------------------
    # Appending

    def record(self, key: Any, value: Any) -> None:
        """Append one ``(key, value)`` record, durable before this returns."""
        try:
            line = encode_line({"key": key, "value": value})
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"record for key {key!r} is not JSON-serializable: {exc}",
                path=self.path,
            ) from exc
        self._log.append(line)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _settings_diff(recorded: Any, current: dict) -> str:
    """Human-readable list of top-level settings keys that differ."""
    if not isinstance(recorded, dict):
        return ""
    keys = sorted(set(recorded) | set(current))
    changed = [
        f"{k}: {recorded.get(k)!r} -> {current.get(k)!r}"
        for k in keys
        if recorded.get(k) != current.get(k)
    ]
    return "; ".join(changed)
