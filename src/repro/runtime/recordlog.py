"""One append-only record log: its file format and every byte of I/O on it.

Two record schemas sit on this log: the run journal
(:class:`repro.runtime.journal.RunJournal`), which makes bench sweeps
and multi-start runs resumable, and the partition daemon's state log
(:class:`repro.server.persist.StateStore`).  This module owns what they
share:

* one JSON object per line (canonical encoding: sorted keys, tight
  separators), the first line being a **header** that names the schema;
* a fresh log's header, and every record after it, made durable
  (``write`` + ``flush`` + ``os.fsync``) before the caller moves on, so
  a crash loses at most the record being written;
* a line is durable only once its newline is on disk.  The one line a
  mid-append crash can leave, an unterminated or malformed final line,
  is the **torn tail**: :func:`read_log` drops it and
  :meth:`RecordLog.reopen` truncates it away, so the next append starts
  a line of its own;
* the atomic rewrite that compaction needs (:meth:`RecordLog.rewrite`).

The schemas own the rest: what a header must contain, what a record
holds, how records fold, and what a malformed line before the tail
means — :func:`read_log` reports it, the journal refuses the file, and
the state log skips and counts the line.  Disk failures surface as the
``OSError`` that caused them; each schema raises its own typed error (a
:class:`RecordLogError`) where it detects a problem.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "LogContents",
    "RecordLog",
    "RecordLogError",
    "encode_line",
    "read_log",
]


class RecordLogError(ValueError):
    """Base class of the log schemas' typed errors (a ``ValueError``).

    Attributes
    ----------
    message:
        The bare problem description (no location prefix).
    path:
        The log file involved, when known.
    """

    def __init__(self, message: str, *, path: str | os.PathLike | None = None) -> None:
        self.message = message
        self.path = str(path) if path is not None else None
        prefix = f"{self.path}: " if self.path is not None else ""
        super().__init__(prefix + message)


def encode_line(obj: dict) -> bytes:
    """One canonical JSONL line (sorted keys, tight separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


class LogContents(NamedTuple):
    """A log as :func:`read_log` found it.

    ``header`` is the first well-formed line (``None`` when no durable
    line holds one); ``records`` are ``(lineno, obj)`` for the later
    well-formed lines in append order; ``corrupt`` are ``(lineno,
    reason)`` for the malformed lines before the tail; ``durable`` is
    the byte count through the last durable newline, the length
    :meth:`RecordLog.reopen` cuts the file to; ``size`` is the file's
    size as read.  Line numbers are 1-based.
    """

    header: dict | None
    records: list[tuple[int, dict]]
    corrupt: list[tuple[int, str]]
    durable: int
    size: int


def read_log(path: str | os.PathLike) -> LogContents:
    """Parse the log at ``path`` without changing the file."""
    raw = Path(path).read_bytes()
    header: dict | None = None
    records: list[tuple[int, dict]] = []
    corrupt: list[tuple[int, str]] = []
    offset = 0
    lineno = 0
    # An unterminated final line is never reached: it is the torn tail.
    while (newline := raw.find(b"\n", offset)) >= 0:
        lineno += 1
        try:
            obj = json.loads(raw[offset:newline])
            if not isinstance(obj, dict):
                raise ValueError("log lines must be JSON objects")
        except ValueError as exc:
            if newline == len(raw) - 1:
                break  # a malformed final line is the torn tail too
            corrupt.append((lineno, str(exc)))
        else:
            if header is None:
                header = obj
            else:
                records.append((lineno, obj))
        offset = newline + 1
    return LogContents(header, records, corrupt, offset, len(raw))


class RecordLog:
    """An open log, appended to one fsynced line at a time.

    :meth:`create` starts a fresh log and :meth:`reopen` continues one
    that :func:`read_log` has read.  The log owns its file handle —
    :meth:`close` it when done.
    """

    def __init__(self, path: Path, fh) -> None:
        self.path = path
        self._fh = fh

    @classmethod
    def create(cls, path: str | os.PathLike, header: dict) -> "RecordLog":
        """Start a fresh log at ``path`` (truncating any existing file).

        The header is durable on disk before this returns.
        """
        line = encode_line(header)
        log = cls(Path(path), open(path, "wb"))
        try:
            log.append(line)
        except OSError:
            log.close()
            raise
        return log

    @classmethod
    def reopen(cls, path: str | os.PathLike, durable: int) -> "RecordLog":
        """Continue the log at ``path`` after its first ``durable`` bytes.

        Truncates away the torn tail a mid-append crash may have left
        (everything past ``durable``, as :func:`read_log` measured it)
        before the first new append, so the file only ever holds whole
        lines.
        """
        os.truncate(path, durable)
        return cls(Path(path), open(path, "ab"))

    def append(self, line: bytes) -> None:
        """Append one :func:`encode_line` line durably (write + flush + fsync).

        Taking the encoded bytes lets a writer transform them on their
        way to disk — in practice the state store's corruption-chaos
        hook, which damages a record to prove the read side catches it.
        """
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def rewrite(self, header: dict, records: Iterable[dict]) -> None:
        """Atomically replace the log with ``header`` and ``records``.

        The new content is written to ``<log>.compact`` beside the log,
        fsynced, and renamed over it with ``os.replace``, so a crash
        leaves either the old log or the new one, never a hybrid.
        Appends continue on the new file.
        """
        tmp_path = self.path.with_name(self.path.name + ".compact")
        with open(tmp_path, "wb") as fh:
            fh.write(encode_line(header))
            for record in records:
                fh.write(encode_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self.path)
        self._fh.close()
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover
            pass
