"""Persistent append-only job journal: crash-safe sweep bookkeeping.

A :class:`JobJournal` records the lifecycle of every job the serving tier
accepts — ``submitted`` when a sweep starts executing, then exactly one
terminal record (``completed`` / ``failed`` / ``cancelled``) — as
newline-delimited JSON in a single append-only file under the cache
directory.  The records ride the same NDJSON conventions as both wire
protocols (:mod:`repro.wire` does the encoding, so the line format, key
ordering and size guard are identical to what travels the sockets), which
keeps the journal greppable with the same tooling and trivially parseable.

The journal is what makes a killed server recoverable: a job that was
``submitted`` but never reached a terminal record was interrupted —
``python -m repro serve --resume`` replays exactly those jobs at startup
(:meth:`repro.service.SweepService.resume`), re-running them through the
engine so their artifacts land in the content-addressed cache and a
returning client's resubmit is served warm, bit-identical to an
uninterrupted run.  Because the coordinator of the distributed executor
lives inside the serving process, this also covers coordinator death: the
replayed sweep re-shards across the worker pool from whatever the cache
already holds.  See ``docs/operations.md`` for the recovery runbook.

Durability model:

* records are appended with flush + fsync (default), so a ``SIGKILL``
  loses at most the record being written when the process died;
* a torn final line (the classic crash artifact) is tolerated: readers
  skip undecodable lines instead of failing;
* :meth:`JobJournal.compact` rewrites the file atomically (temp file +
  ``os.replace``) keeping only the still-pending submissions, so the
  journal does not grow forever across restarts.

Examples
--------
>>> import tempfile, pathlib
>>> path = pathlib.Path(tempfile.mkdtemp()) / "journal.ndjson"
>>> journal = JobJournal(path)
>>> journal.record_submitted("db" * 32, "dse", {"fast": True})
>>> [entry.workload for entry in journal.pending()]
['dse']
>>> journal.record_finished("db" * 32, "completed")
>>> journal.pending()
[]
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional, Union

from repro import wire

PathLike = Union[str, pathlib.Path]

#: File name of the journal inside the cache directory.
JOURNAL_FILENAME = "journal.ndjson"

#: Statuses that end a job's journal lifecycle.
TERMINAL_STATUSES = frozenset({"completed", "failed", "cancelled"})

def default_journal_path(cache_dir: Optional[PathLike] = None) -> pathlib.Path:
    """Journal location for a given cache root (default: the default cache).

    The journal lives *inside* the cache directory — the artifacts it
    refers to and the record of how they came to be travel together, and
    ``cache clear`` keeps its hands off it (the cache only removes the
    artifact, tmp and legacy ``.npz`` files in its key-prefix
    subdirectories).
    """
    from repro.runtime.cache import default_cache_dir

    root = pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / JOURNAL_FILENAME


@dataclasses.dataclass
class JournalEntry:
    """One pending (interrupted) job recovered from the journal."""

    key: str
    workload: str
    params: Dict[str, Any]
    submitted_at: float

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class JobJournal:
    """Append-only NDJSON journal of submitted / finished jobs.

    Parameters
    ----------
    path:
        Journal file location (see :func:`default_journal_path`).  Parent
        directories are created on first append.
    fsync:
        Whether every append is fsync'd (default).  Turning it off trades
        crash durability for write latency — with it off, records buffered
        by the OS when the machine (not just the process) dies are lost.

    Raises
    ------
    OSError
        From the append methods when the journal file cannot be created
        or written.

    Every mutating method is thread-safe; the serving tier appends from
    its event loop while reads (``pending`` / ``compact``) may happen from
    anywhere.
    """

    def __init__(self, path: PathLike, fsync: bool = True):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_submitted(
        self, key: str, workload: str, params: Optional[Dict[str, Any]] = None
    ) -> None:
        """Record that the job ``key`` started executing.

        ``workload`` and ``params`` must be sufficient to re-submit the job
        after a crash — they are exactly what :meth:`pending` hands back to
        the resume machinery.
        """
        self._append(
            {
                "record": "submitted",
                "key": key,
                "workload": workload,
                "params": dict(params or {}),
            }
        )

    def record_finished(self, key: str, status: str) -> None:
        """Record the job's terminal status (from :data:`TERMINAL_STATUSES`)."""
        if status not in TERMINAL_STATUSES:
            raise ValueError(
                f"status must be one of {sorted(TERMINAL_STATUSES)}, got {status!r}"
            )
        self._append({"record": status, "key": key})

    def _append(self, record: Dict[str, Any]) -> None:
        record = {"ts": time.time(), **record}
        data = wire.encode_message(record)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                handle.write(data)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every decodable record, in file order.

        Undecodable lines — the torn tail a ``SIGKILL`` mid-append leaves
        behind — are skipped, never fatal.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return []
        records: List[Dict[str, Any]] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                records.append(wire.decode_message(line))
            except wire.ProtocolError:
                continue
        return records

    def pending(self) -> List[JournalEntry]:
        """Jobs submitted but never finished — the crash-interrupted set.

        Entries are deduplicated by key (a job resubmitted across restarts
        appears once) and returned in first-submission order.  Records of
        any other kind (such as the ``paused`` / ``resumed`` audit lines
        older servers wrote) are skipped.
        """
        return self._pending_from(self.records())

    @staticmethod
    def _pending_from(records: List[Dict[str, Any]]) -> List[JournalEntry]:
        submitted: Dict[str, JournalEntry] = {}
        for record in records:
            key = record.get("key")
            kind = record.get("record")
            if not isinstance(key, str):
                continue
            if kind == "submitted":
                if key not in submitted:
                    params = record.get("params")
                    submitted[key] = JournalEntry(
                        key=key,
                        workload=str(record.get("workload", "")),
                        params=params if isinstance(params, dict) else {},
                        submitted_at=float(record.get("ts", 0.0)),
                    )
            elif kind in TERMINAL_STATUSES:
                submitted.pop(key, None)
        return list(submitted.values())

    def compact(self) -> int:
        """Atomically rewrite the journal keeping only pending submissions.

        Returns the number of records dropped.  Called by the server on
        startup so terminal records do not accumulate across restarts.
        """
        with self._lock:
            records = self.records()
            before = len(records)
            entries = self._pending_from(records)
            if not self.path.exists():
                return 0
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with open(tmp, "wb") as handle:
                for entry in entries:
                    handle.write(
                        wire.encode_message(
                            {
                                "ts": entry.submitted_at,
                                "record": "submitted",
                                "key": entry.key,
                                "workload": entry.workload,
                                "params": entry.params,
                            }
                        )
                    )
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            return before - len(entries)

    def describe(self) -> str:
        """Human-readable one-liner (used by ``serve`` startup logging)."""
        pending = len(self.pending())
        return f"journal at {self.path}: {pending} pending job(s)"
