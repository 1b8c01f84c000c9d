"""The shared cache tier: one sqlite(WAL) store under N processes.

**Nothing in the program uses this module any more.**  The service
ran a pre-fork group over it until measurement showed it cost more
than it saved: on the benchmark's ``serve`` workload it answered none
of its memo lookups and 5.6 % of its response lookups, at 7.8 ms per
request against 4.5 ms of core solving, so every server process now
keeps only its own response cache.  The module stays
because ``wallbench/spans.py`` wraps its classes' methods in every
traced benchmark run, and ``spans.install`` fails on all three
workloads without them.  It goes together with those hooks.

Pre-forked service workers each carry the usual in-process caches —
the solve memo (:mod:`repro.core.memo`) and the response cache
(:mod:`repro.service.cache`) — but as **L1s** layered over one
:class:`SharedCacheTier` on disk.  A solve or rendered response
computed by any process becomes a hit for every sibling, so cache
warm-up cost is paid once per host, not once per process.

Layout
------
``entries``
    One row per cached value: ``(namespace, key, payload, stamp)``.
    Namespaces keep the two cache families (``response``, ``memo``)
    from colliding; payloads are pickled (responses carry bare NaN,
    which strict JSON would reject); ``stamp`` is wall-clock write
    time, used for TTL checks and oldest-first eviction.
``counters``
    Cross-process event counters, one row per ``(pid, name)``.  Each
    process increments its own rows (no write contention on hot
    names); readers aggregate with ``SUM`` — that aggregate is what
    ``/metrics`` exposes as ``scaleout_shared_cache_total``.

Keys
----
Cross-process keys must be *stable text*, so they are derived with
:func:`encode_key` — a SHA-256 over ``repr(key)``.  The in-process
caches key on frozen dataclasses whose ``repr`` is deterministic
everywhere; ``hash()`` is **not** usable here because string hashing
is randomized per process (``PYTHONHASHSEED``).

Fork safety
-----------
Connections are cached per thread and stamped with ``os.getpid()``,
exactly like :class:`~repro.jobs.store.JobStore`: a forked child
abandons (never closes) the handle it inherited and opens its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.memo import DEFAULT_MAXSIZE, MemoCache, ModelKey
from ..service.cache import ResponseCache

__all__ = [
    "RESPONSE_NAMESPACE",
    "MEMO_NAMESPACE",
    "encode_key",
    "SharedCacheTier",
    "TieredResponseCache",
    "SharedMemoCache",
]

RESPONSE_NAMESPACE = "response"
MEMO_NAMESPACE = "memo"

#: Default bound on shared response entries (mirrors the L1 default).
DEFAULT_RESPONSE_ENTRIES = 4096
#: Default bound on shared memo entries (mirrors the L1 default).
DEFAULT_MEMO_ENTRIES = DEFAULT_MAXSIZE
#: Memo writes/counter bumps buffered per process before one batched
#: transaction flushes them — per-solve write transactions would put
#: the sqlite write lock on the sweep hot path.
DEFAULT_FLUSH_THRESHOLD = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    payload   BLOB NOT NULL,
    stamp     REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE INDEX IF NOT EXISTS entries_stamp ON entries (namespace, stamp);
CREATE TABLE IF NOT EXISTS counters (
    pid   INTEGER NOT NULL,
    name  TEXT NOT NULL,
    value INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (pid, name)
);
"""


def encode_key(key: Any) -> str:
    """Stable cross-process cache key: SHA-256 of ``repr(key)``.

    Valid for the keys our caches actually use — tuples of strings and
    frozen dataclasses of scalars, whose ``repr`` round-trips floats
    exactly and is identical in every process.  ``hash()`` would not
    be: string hashing is per-process randomized.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class SharedCacheTier:
    """Process-shared cache store plus cross-process event counters.

    Parameters
    ----------
    cache_dir:
        Directory holding ``shared_cache.sqlite3`` (created if
        missing).  Every process of one scale-out group points here.
    clock:
        Injectable wall clock for entry stamps (tests freeze it).
        Wall time, not monotonic: stamps must be comparable across
        processes.

    Values must never be ``None`` (``None`` is the miss sentinel);
    both cache families store non-None payloads by construction.
    """

    DB_NAME = "shared_cache.sqlite3"

    def __init__(self, cache_dir: Union[str, Path], *,
                 clock: Callable[[], float] = time.time) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / self.DB_NAME
        self._clock = clock
        self._local = threading.local()
        with self._connection() as conn:
            conn.executescript(_SCHEMA)

    # -- connections (pid-stamped; see jobs.store.JobStore) ------------

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        # Switching to WAL needs the file to itself; a tier already in
        # WAL (every open after the first) must not race for that.
        if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @contextlib.contextmanager
    def _connection(self):
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != pid:
            # A handle inherited across fork is abandoned, never
            # closed: sqlite API calls on it are unsafe in the child.
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
                self._local.conn = None
            raise

    def close(self) -> None:
        """Close the calling thread's handle if this process owns it."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) \
                == os.getpid():
            conn.close()
        self._local.conn = None

    # -- entries -------------------------------------------------------

    def get(self, namespace: str, key: str, *,
            ttl: Optional[float] = None) -> Any:
        """The stored value, or ``None`` on miss or TTL expiry.

        An expired entry is deleted on the way out so dead rows do not
        accumulate under the entry bound.
        """
        with self._connection() as conn:
            row = conn.execute(
                "SELECT payload, stamp FROM entries"
                " WHERE namespace = ? AND key = ?", (namespace, key),
            ).fetchone()
            if row is None:
                return None
            if ttl is not None and self._clock() - row[1] >= ttl:
                conn.execute(
                    "DELETE FROM entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                return None
        return pickle.loads(row[0])

    def get_many(self, namespace: str,
                 keys: Sequence[str]) -> Dict[str, Any]:
        """Present entries among ``keys`` (no TTL filter — memo path)."""
        if not keys:
            return {}
        found: Dict[str, Any] = {}
        with self._connection() as conn:
            # Chunk the IN list well under sqlite's default 999-variable
            # bound.
            for start in range(0, len(keys), 500):
                chunk = list(keys[start:start + 500])
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key, payload FROM entries"
                    f" WHERE namespace = ? AND key IN ({marks})",
                    [namespace] + chunk,
                ).fetchall()
                for key, payload in rows:
                    found[key] = pickle.loads(payload)
        return found

    def put(self, namespace: str, key: str, value: Any, *,
            max_entries: Optional[int] = None) -> None:
        self.put_many(namespace, [(key, value)], max_entries=max_entries)

    def put_many(self, namespace: str,
                 items: Iterable[Tuple[str, Any]], *,
                 max_entries: Optional[int] = None) -> None:
        """Upsert a batch in one transaction, then enforce the bound.

        Eviction is oldest-stamp-first and is charged to this
        process's ``<namespace>.eviction`` counter in the same
        transaction.
        """
        rows = [(namespace, key,
                 pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                 self._clock())
                for key, value in items]
        if not rows:
            return
        with self._connection() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO entries"
                " (namespace, key, payload, stamp) VALUES (?, ?, ?, ?)",
                rows,
            )
            if max_entries is not None:
                count = conn.execute(
                    "SELECT COUNT(*) FROM entries WHERE namespace = ?",
                    (namespace,),
                ).fetchone()[0]
                excess = count - max_entries
                if excess > 0:
                    conn.execute(
                        "DELETE FROM entries WHERE namespace = ?1"
                        " AND key IN (SELECT key FROM entries"
                        "  WHERE namespace = ?1 ORDER BY stamp"
                        "  LIMIT ?2)",
                        (namespace, excess),
                    )
                    self._bump_in(conn, {f"{namespace}.eviction": excess})

    def entry_count(self, namespace: Optional[str] = None) -> int:
        with self._connection() as conn:
            if namespace is None:
                row = conn.execute(
                    "SELECT COUNT(*) FROM entries").fetchone()
            else:
                row = conn.execute(
                    "SELECT COUNT(*) FROM entries WHERE namespace = ?",
                    (namespace,),
                ).fetchone()
        return int(row[0])

    # -- counters ------------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        self.bump_many({name: amount})

    def bump_many(self, amounts: Dict[str, int]) -> None:
        """Add to this process's counter rows in one transaction."""
        amounts = {name: n for name, n in amounts.items() if n}
        if not amounts:
            return
        with self._connection() as conn:
            self._bump_in(conn, amounts)

    @staticmethod
    def _bump_in(conn: sqlite3.Connection,
                 amounts: Dict[str, int]) -> None:
        pid = os.getpid()
        conn.executemany(
            "INSERT INTO counters (pid, name, value) VALUES (?, ?, ?)"
            " ON CONFLICT(pid, name)"
            " DO UPDATE SET value = value + excluded.value",
            [(pid, name, amount) for name, amount in amounts.items()],
        )

    def counters_total(self) -> Dict[str, int]:
        """Event counters summed over every process, name → total."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT name, SUM(value) FROM counters GROUP BY name"
            ).fetchall()
        return {name: int(total) for name, total in rows}

    def counters_by_pid(self) -> Dict[int, Dict[str, int]]:
        """Per-process counter rows, pid → {name: value}."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT pid, name, value FROM counters"
            ).fetchall()
        by_pid: Dict[int, Dict[str, int]] = {}
        for pid, name, value in rows:
            by_pid.setdefault(int(pid), {})[name] = int(value)
        return by_pid

    def processes_seen(self) -> int:
        """Distinct pids that have recorded at least one counter."""
        with self._connection() as conn:
            row = conn.execute(
                "SELECT COUNT(DISTINCT pid) FROM counters").fetchone()
        return int(row[0])


class TieredResponseCache(ResponseCache):
    """Per-process L1 response cache over a :class:`SharedCacheTier`.

    Behaviour is the parent's — TTL+LRU, single-flight coalescing —
    except that the *compute* step first consults the shared tier:
    an L1 miss that a sibling process already computed is served from
    disk instead of re-rendered.  Fresh computations are written
    through eagerly (responses are few and large; batching buys
    nothing and risks losing minutes of work on a crash).

    Tier counters: ``response.hit`` / ``response.miss`` (tier-level,
    cross-process) and ``response.eviction`` (bound enforcement).
    """

    def __init__(self, tier: SharedCacheTier, *,
                 maxsize: int = 1024, ttl: float = 300.0,
                 clock: Callable[[], float] = time.monotonic,
                 max_shared_entries: int = DEFAULT_RESPONSE_ENTRIES
                 ) -> None:
        super().__init__(maxsize=maxsize, ttl=ttl, clock=clock)
        self.tier = tier
        self.max_shared_entries = max_shared_entries

    def get_or_compute(self, key, compute, wait_timeout=None):
        if self.ttl <= 0:
            # Caching disabled: keep in-process coalescing, skip the
            # tier (a shared entry would never be considered fresh).
            return super().get_or_compute(key, compute, wait_timeout)

        def tiered_compute():
            encoded = encode_key(key)
            value = self.tier.get(RESPONSE_NAMESPACE, encoded,
                                  ttl=self.ttl)
            if value is not None:
                self.tier.bump("response.hit")
                return value
            value = compute()
            self.tier.put(RESPONSE_NAMESPACE, encoded, value,
                          max_entries=self.max_shared_entries)
            self.tier.bump("response.miss")
            return value

        return super().get_or_compute(key, tiered_compute, wait_timeout)


class SharedMemoCache(MemoCache):
    """Per-process L1 solve memo over a :class:`SharedCacheTier`.

    Lookups go L1 → tier; a tier hit is promoted into the L1 (and
    counts as a local hit — it *was* served from the memo, just a
    sibling's).  Stores land in the L1 immediately but reach the tier
    through a write buffer flushed every ``flush_threshold`` entries,
    so the per-solve hot path never takes the cross-process write
    lock.  Call :meth:`flush` on shutdown to persist the tail.

    Tier counters (batched with the same buffer): ``memo.hit`` /
    ``memo.miss`` / ``memo.store`` and ``memo.eviction``.
    """

    def __init__(self, tier: SharedCacheTier, *,
                 maxsize: int = DEFAULT_MAXSIZE,
                 max_shared_entries: int = DEFAULT_MEMO_ENTRIES,
                 flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        super().__init__(maxsize=maxsize)
        self.tier = tier
        self.max_shared_entries = max_shared_entries
        self.flush_threshold = flush_threshold
        self._tier_lock = threading.Lock()
        self._pending: Dict[str, Any] = {}
        self._pending_counts: Dict[str, int] = {}

    # -- lookups -------------------------------------------------------

    def lookup(self, key: ModelKey):
        values = self.lookup_many([key])
        return values[0]

    def lookup_many(self, keys: Sequence[ModelKey]):
        with self._lock:
            values: List[Any] = [self._entries.get(key) for key in keys]
            l1_hits = sum(1 for value in values if value is not None)
            self._hits += l1_hits
        missing = [index for index, value in enumerate(values)
                   if value is None]
        if not missing:
            return values
        encoded = [encode_key(keys[index]) for index in missing]
        found = self.tier.get_many(MEMO_NAMESPACE, encoded)
        tier_hits = 0
        promoted: List[Tuple[ModelKey, Any]] = []
        for index, code in zip(missing, encoded):
            value = found.get(code)
            if value is not None:
                values[index] = value
                promoted.append((keys[index], value))
                tier_hits += 1
        with self._lock:
            # Tier hits are memo hits: the solve was served from the
            # (tiered) memo, not recomputed.
            self._hits += tier_hits
            self._misses += len(missing) - tier_hits
            for key, value in promoted:
                if key not in self._entries \
                        and len(self._entries) >= self.maxsize:
                    self._entries.popitem(last=False)
                self._entries[key] = value
        self._count("memo.hit", tier_hits)
        self._count("memo.miss", len(missing) - tier_hits)
        return values

    # -- stores --------------------------------------------------------

    def store(self, key: ModelKey, value) -> None:
        self.store_many([(key, value)])

    def store_many(self, items) -> None:
        items = list(items)
        super().store_many(items)
        if not items:
            return
        with self._tier_lock:
            for key, value in items:
                self._pending[encode_key(key)] = value
            self._pending_counts["memo.store"] = \
                self._pending_counts.get("memo.store", 0) + len(items)
            drained = self._drain_if_due()
        self._write_out(drained)

    def flush(self) -> None:
        """Force the write buffer and batched counters to the tier."""
        with self._tier_lock:
            drained = self._drain()
        self._write_out(drained)

    # -- internals -----------------------------------------------------

    def _count(self, name: str, amount: int) -> None:
        if not amount:
            return
        with self._tier_lock:
            self._pending_counts[name] = \
                self._pending_counts.get(name, 0) + amount
            drained = self._drain_if_due()
        self._write_out(drained)

    def _drain_if_due(self):
        """Take the buffers when due (call with ``_tier_lock`` held)."""
        pending_events = sum(self._pending_counts.values())
        if len(self._pending) >= self.flush_threshold \
                or pending_events >= self.flush_threshold:
            return self._drain()
        return None

    def _drain(self):
        drained = (self._pending, self._pending_counts)
        self._pending = {}
        self._pending_counts = {}
        return drained

    def _write_out(self, drained) -> None:
        if drained is None:
            return
        pending, counts = drained
        if pending:
            self.tier.put_many(MEMO_NAMESPACE, pending.items(),
                               max_entries=self.max_shared_entries)
        self.tier.bump_many(counts)
