"""Durable job store: sqlite-backed state under a ``--state-dir``.

One :class:`JobStore` wraps ``<state_dir>/jobs.sqlite3`` (WAL mode) and
is safe to open from any number of threads **and processes** — the
service's in-process worker pool, standalone ``python -m
repro.jobs.worker`` processes and the test harness all coordinate
through the same file.  Every read-modify-write runs inside a ``BEGIN
IMMEDIATE`` transaction, so exactly one worker wins each lease.

Schema
------
``jobs``
    One row per job: the JSON spec, status (``queued`` → ``running`` →
    ``succeeded``/``failed``/``cancelled``), lease owner + expiry,
    attempt/failure counters, backoff gate (``not_before``), timing,
    and — once finished — the encoded artifact or the error text.
``checkpoints``
    One row per completed chunk (``INSERT OR IGNORE``: the first write
    wins, so a re-leased job can never corrupt a finished chunk).

Leases
------
A worker claims the oldest runnable job (queued, or running with an
expired lease — i.e. its worker died) whose backoff gate has passed.
The lease must be renewed (:meth:`JobStore.renew_lease`) at least every
``lease_ttl`` seconds — the worker does so after each chunk — or the
job becomes claimable again.  Checkpoints survive re-leasing, which is
what makes crash-resume cheap: the successor skips every chunk already
on disk.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .spec import JobSpec

__all__ = [
    "QUEUED", "RUNNING", "SUCCEEDED", "FAILED", "CANCELLED",
    "ACTIVE_STATUSES", "TERMINAL_STATUSES", "STATUSES",
    "JobRecord", "JobStore",
]

QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

ACTIVE_STATUSES = (QUEUED, RUNNING)
TERMINAL_STATUSES = (SUCCEEDED, FAILED, CANCELLED)
STATUSES = ACTIVE_STATUSES + TERMINAL_STATUSES

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    spec             TEXT NOT NULL,
    status           TEXT NOT NULL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    failures         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL,
    chunks_total     INTEGER NOT NULL,
    error            TEXT,
    result           TEXT,
    lease_owner      TEXT,
    lease_expires_at REAL,
    not_before       REAL NOT NULL DEFAULT 0,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    seq              INTEGER
);
CREATE TABLE IF NOT EXISTS checkpoints (
    job_id       TEXT NOT NULL,
    chunk_index  INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    elapsed      REAL NOT NULL,
    completed_at REAL NOT NULL,
    PRIMARY KEY (job_id, chunk_index)
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, not_before);
"""


@dataclass(frozen=True)
class JobRecord:
    """Read-only view of one job row (plus its checkpoint count)."""

    id: str
    kind: str
    spec: Dict[str, Any]
    status: str
    cancel_requested: bool
    attempts: int
    failures: int
    max_attempts: int
    chunks_total: int
    chunks_done: int
    error: Optional[str]
    result_text: Optional[str]
    lease_owner: Optional[str]
    lease_expires_at: Optional[float]
    not_before: float
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def progress(self) -> float:
        """Fraction of chunks checkpointed, 1.0 when terminal-success."""
        if self.status == SUCCEEDED:
            return 1.0
        if self.chunks_total <= 0:
            return 0.0
        return min(1.0, self.chunks_done / self.chunks_total)

    def job_spec(self) -> JobSpec:
        return JobSpec.from_stored(self.spec)


class JobStore:
    """Thread- and process-safe durable job state.

    Parameters
    ----------
    state_dir:
        Directory holding ``jobs.sqlite3`` (created if missing).
    clock:
        Injectable wall clock (``time.time``); tests freeze it.  Wall
        time, not monotonic, because leases must be comparable across
        processes.
    """

    DB_NAME = "jobs.sqlite3"

    def __init__(self, state_dir: Union[str, Path],
                 clock: Callable[[], float] = time.time) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.state_dir / self.DB_NAME
        self._clock = clock
        self._local = threading.local()
        with self._connection() as conn:
            conn.executescript(_SCHEMA)

    # -- connections ---------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.row_factory = sqlite3.Row
        # Switching to WAL needs the file to itself; a store already in
        # WAL (every open after the first) must not race for that.
        if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        # Every thread holds its own connection, and each one's page
        # cache (2000 KiB by default) is emptied whenever another
        # connection has written since its last read, then filled again.
        # 256 KiB still holds one 900-point sweep artifact; with the
        # default, the service's peak RSS ran about 12 MB higher under a
        # job load.
        conn.execute("PRAGMA cache_size=-256")
        return conn

    @contextlib.contextmanager
    def _connection(self):
        """Per-thread cached connection, stamped with ``os.getpid()``.

        Threads never share a handle, and a forked child never reuses
        one inherited from its parent: sqlite connections carry file
        locks and page-cache state that are corrupt in the child, so
        on a pid mismatch the inherited handle is *abandoned* — never
        closed, since even ``close()`` on it is unsafe post-fork — and
        a fresh one is opened under the child's pid.
        """
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != pid:
            conn = self._open()
            self._local.conn = conn
            self._local.pid = pid
        try:
            yield conn
            conn.commit()
        except BaseException:
            try:
                conn.rollback()
            except sqlite3.Error:
                # The handle is wedged; drop it so the next operation
                # on this thread starts from a fresh connection.
                self._local.conn = None
            raise

    def close(self) -> None:
        """Close the calling thread's cached connection, if it owns one.

        Only closes a handle opened in *this* process — a child that
        inherited the parent's handle across fork must not touch it.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) \
                == os.getpid():
            conn.close()
        self._local.conn = None

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec, *, chunks_total: int,
               max_attempts: int = 3,
               job_id: Optional[str] = None) -> JobRecord:
        """Enqueue one job; returns its freshly-queued record.

        The row keeps :meth:`~repro.jobs.spec.JobSpec.for_store`, which
        plans the same ``chunks_total`` as ``spec`` itself.
        """
        if chunks_total <= 0:
            raise ValueError(
                f"chunks_total must be positive, got {chunks_total}"
            )
        if max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {max_attempts}"
            )
        job_id = job_id or uuid.uuid4().hex[:12]
        now = self._clock()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT INTO jobs (id, kind, spec, status, max_attempts,"
                " chunks_total, created_at, seq)"
                " VALUES (?, ?, ?, ?, ?, ?, ?,"
                " (SELECT COALESCE(MAX(seq), 0) + 1 FROM jobs))",
                (job_id, spec.kind, json.dumps(spec.for_store().to_dict()),
                 QUEUED, max_attempts, chunks_total, now),
            )
            return self._get(conn, job_id)

    # -- reads ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._connection() as conn:
            return self._get(conn, job_id)

    def list_jobs(self, status: Optional[str] = None,
                  limit: int = 200) -> List[JobRecord]:
        """Most recently submitted first; optional status filter."""
        query = ("SELECT *, (SELECT COUNT(*) FROM checkpoints"
                 " WHERE job_id = jobs.id) AS chunks_done FROM jobs")
        params: tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY seq DESC LIMIT ?"
        with self._connection() as conn:
            rows = conn.execute(query, params + (limit,)).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per status (every status present, zeroes included)."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        for row in rows:
            counts[row["status"]] = row["n"]
        return counts

    def kind_status_counts(self, kind: str) -> Dict[str, int]:
        """Jobs of one kind per status (zeroes included) — one GROUP BY
        query, so per-kind gauges stay a single store round-trip."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs"
                " WHERE kind = ? GROUP BY status", (kind,),
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        for row in rows:
            counts[row["status"]] = row["n"]
        return counts

    def retries_total(self) -> int:
        """Chunk-failure retries recorded across all jobs, ever."""
        with self._connection() as conn:
            row = conn.execute(
                "SELECT COALESCE(SUM(failures), 0) AS n FROM jobs"
            ).fetchone()
        return int(row["n"])

    def queue_depth(self) -> int:
        """Claimable backlog: queued jobs plus expired-lease running ones."""
        now = self._clock()
        with self._connection() as conn:
            row = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE status = ?"
                " OR (status = ? AND lease_expires_at <= ?)",
                (QUEUED, RUNNING, now),
            ).fetchone()
        return int(row["n"])

    def running_count(self) -> int:
        now = self._clock()
        with self._connection() as conn:
            row = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE status = ?"
                " AND lease_expires_at > ?", (RUNNING, now),
            ).fetchone()
        return int(row["n"])

    # -- leasing -------------------------------------------------------

    def lease(self, owner: str, *,
              lease_ttl: float = 30.0) -> Optional[JobRecord]:
        """Atomically claim the oldest runnable job, or return None.

        Claimable: ``queued``, or ``running`` with an expired lease (the
        previous worker crashed or was killed); both gated by
        ``not_before`` (retry backoff).  Each successful lease
        increments ``attempts``.
        """
        now = self._clock()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT id FROM jobs WHERE cancel_requested = 0"
                " AND not_before <= ?"
                " AND (status = ? OR (status = ? AND lease_expires_at <= ?))"
                " ORDER BY seq LIMIT 1",
                (now, QUEUED, RUNNING, now),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status = ?, lease_owner = ?,"
                " lease_expires_at = ?, attempts = attempts + 1,"
                " started_at = COALESCE(started_at, ?) WHERE id = ?",
                (RUNNING, owner, now + lease_ttl, now, row["id"]),
            )
            return self._get(conn, row["id"])

    def renew_lease(self, job_id: str, owner: str, *,
                    lease_ttl: float = 30.0) -> bool:
        """Extend a held lease; False when it was lost (job re-leased,
        finished, or cancelled out from under the worker)."""
        now = self._clock()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires_at = ? WHERE id = ?"
                " AND status = ? AND lease_owner = ?",
                (now + lease_ttl, job_id, RUNNING, owner),
            )
            return cursor.rowcount == 1

    def release(self, job_id: str, owner: str, *, delay: float = 0.0,
                count_failure: bool = False,
                error: Optional[str] = None) -> bool:
        """Hand a leased job back to the queue (drain or retry-backoff).

        ``count_failure`` records one chunk failure and arms the
        ``not_before`` backoff gate ``delay`` seconds out.  Only the
        lease holder may release; anyone else is a no-op (False).

        A cancel that landed while the worker held the lease (e.g.
        during a SIGTERM drain's final checkpoint) is honoured here,
        in the same transaction: ``lease`` refuses cancel-requested
        jobs, so requeueing one would strand it QUEUED-but-unclaimable
        forever — a zombie that resurrects in listings on next boot.
        """
        now = self._clock()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE jobs SET status = ?, error = ?, finished_at = ?,"
                " lease_owner = NULL, lease_expires_at = NULL"
                " WHERE id = ? AND status = ? AND lease_owner = ?"
                " AND cancel_requested = 1",
                (CANCELLED, "cancelled by request", now,
                 job_id, RUNNING, owner),
            )
            if cursor.rowcount == 1:
                return True
            cursor = conn.execute(
                "UPDATE jobs SET status = ?, lease_owner = NULL,"
                " lease_expires_at = NULL, not_before = ?,"
                " failures = failures + ?, error = COALESCE(?, error)"
                " WHERE id = ? AND status = ? AND lease_owner = ?",
                (QUEUED, now + max(0.0, delay),
                 1 if count_failure else 0, error,
                 job_id, RUNNING, owner),
            )
            return cursor.rowcount == 1

    # -- checkpoints ---------------------------------------------------

    def checkpoint(self, job_id: str, chunk_index: int,
                   payload_text: str, *, elapsed: float = 0.0) -> None:
        """Persist one completed chunk (idempotent: first write wins)."""
        with self._connection() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO checkpoints"
                " (job_id, chunk_index, payload, elapsed, completed_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (job_id, chunk_index, payload_text, elapsed, self._clock()),
            )

    def checkpoints(self, job_id: str) -> Dict[int, str]:
        """chunk index → payload text, for every checkpointed chunk."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT chunk_index, payload FROM checkpoints"
                " WHERE job_id = ? ORDER BY chunk_index", (job_id,),
            ).fetchall()
        return {row["chunk_index"]: row["payload"] for row in rows}

    # -- completion ----------------------------------------------------

    def finish(self, job_id: str, status: str, *,
               result_text: Optional[str] = None,
               error: Optional[str] = None) -> bool:
        """Move a job to a terminal status (no-op if already terminal)."""
        if status not in TERMINAL_STATUSES:
            raise ValueError(f"not a terminal status: {status!r}")
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE jobs SET status = ?, result = ?, error = ?,"
                " finished_at = ?, lease_owner = NULL,"
                " lease_expires_at = NULL"
                " WHERE id = ? AND status IN (?, ?)",
                (status, result_text, error, self._clock(),
                 job_id, QUEUED, RUNNING),
            )
            return cursor.rowcount == 1

    def request_cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a job: queued jobs die immediately, running jobs get
        the flag (their worker honours it at the next chunk boundary).
        Terminal jobs are untouched.  None for unknown ids."""
        now = self._clock()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            record = self._get(conn, job_id)
            if record is None:
                return None
            if record.status == QUEUED:
                conn.execute(
                    "UPDATE jobs SET status = ?, cancel_requested = 1,"
                    " finished_at = ? WHERE id = ? AND status = ?",
                    (CANCELLED, now, job_id, QUEUED),
                )
            elif record.status == RUNNING:
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                )
            return self._get(conn, job_id)

    # -- internals -----------------------------------------------------

    @staticmethod
    def _get(conn, job_id: str) -> Optional[JobRecord]:
        row = conn.execute(
            "SELECT *, (SELECT COUNT(*) FROM checkpoints"
            " WHERE job_id = jobs.id) AS chunks_done"
            " FROM jobs WHERE id = ?", (job_id,),
        ).fetchone()
        return None if row is None else JobStore._record(row)

    @staticmethod
    def _record(row) -> JobRecord:
        return JobRecord(
            id=row["id"],
            kind=row["kind"],
            spec=json.loads(row["spec"]),
            status=row["status"],
            cancel_requested=bool(row["cancel_requested"]),
            attempts=row["attempts"],
            failures=row["failures"],
            max_attempts=row["max_attempts"],
            chunks_total=row["chunks_total"],
            chunks_done=row["chunks_done"],
            error=row["error"],
            result_text=row["result"],
            lease_owner=row["lease_owner"],
            lease_expires_at=row["lease_expires_at"],
            not_before=row["not_before"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
        )
