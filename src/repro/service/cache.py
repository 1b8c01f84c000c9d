"""TTL+LRU response cache with in-flight request coalescing.

This cache deduplicates whole *rendered responses* (solve payloads,
experiment artifacts) and — via single-flight coalescing — whole
*computations*: when N identical requests arrive concurrently, one
thread computes and the other N-1 block on the same flight and share
its result, so a stampede of identical solves costs one bisection and
one render.

Entries expire after ``ttl`` seconds and the table is LRU-bounded.
Failures are never cached: if the compute raises, every coalesced
waiter sees the same exception and the key stays absent.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["ResponseCacheStats", "ResponseCache", "FlightWaitTimeout"]


class FlightWaitTimeout(Exception):
    """A coalesced waiter outlived its ``wait_timeout``.

    Raised instead of blocking forever behind a leader whose compute
    stalls; the leader's flight (and any eventual result) is
    unaffected.  Defined here so deadline-aware callers don't force a
    dependency from the cache onto the resilience package.
    """

#: ``get_or_compute`` outcome labels, in metric-friendly spelling.
HIT, MISS, COALESCED = "hit", "miss", "coalesced"


@dataclass(frozen=True)
class ResponseCacheStats:
    """Point-in-time counters of one response cache."""

    hits: int
    misses: int
    coalesced: int
    evictions: int
    expirations: int
    size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that did not compute (hit or coalesced)."""
        served = self.hits + self.coalesced
        return served / self.lookups if self.lookups else 0.0


class _Flight:
    """One in-progress computation that identical requests can join."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException = None  # type: ignore[assignment]


class ResponseCache:
    """Bounded TTL+LRU cache with single-flight coalescing.

    Parameters
    ----------
    maxsize:
        LRU bound on stored responses.
    ttl:
        Seconds a stored response stays servable.  ``0`` disables
        storage entirely but keeps coalescing: concurrent identical
        requests still share one computation.
    clock:
        Injectable monotonic clock (tests freeze time with it).
    """

    def __init__(self, maxsize: int = 1024, ttl: float = 300.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if ttl < 0:
            raise ValueError(f"ttl must be non-negative, got {ttl}")
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = \
            OrderedDict()
        self._flights: Dict[Hashable, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._evictions = 0
        self._expirations = 0

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any],
                       wait_timeout: Optional[float] = None
                       ) -> Tuple[Any, str]:
        """Return ``(value, outcome)`` where outcome is hit/miss/coalesced.

        Exactly one caller per key runs ``compute`` at a time; the rest
        wait on its flight.  ``compute`` runs outside the cache lock, so
        distinct keys never serialise each other.

        ``wait_timeout`` bounds how long a coalesced waiter blocks on
        the leader's flight; on expiry :class:`FlightWaitTimeout` is
        raised (the leader keeps computing).  ``None`` waits forever.
        """
        while True:
            with self._lock:
                cached = self._lookup_fresh(key)
                if cached is not None:
                    self._hits += 1
                    return cached[1], HIT
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    leader = True
                else:
                    leader = False
                    self._coalesced += 1
            if leader:
                break
            if not flight.done.wait(wait_timeout):
                raise FlightWaitTimeout(
                    f"gave up waiting {wait_timeout:.3f}s for the "
                    f"in-flight computation of {key!r}"
                )
            if flight.error is not None:
                raise flight.error
            return flight.value, COALESCED

        try:
            value = compute()
        except BaseException as error:
            with self._lock:
                self._misses += 1
                self._flights.pop(key, None)
            flight.error = error
            flight.done.set()
            raise
        with self._lock:
            self._misses += 1
            self._flights.pop(key, None)
            if self.ttl > 0:
                self._store(key, value)
        flight.value = value
        flight.done.set()
        return value, MISS

    def stats(self) -> ResponseCacheStats:
        with self._lock:
            return ResponseCacheStats(
                hits=self._hits,
                misses=self._misses,
                coalesced=self._coalesced,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
            )

    def clear(self) -> None:
        """Drop stored responses and counters (in-flight work unaffected)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._coalesced = 0
            self._evictions = self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals (call with the lock held) ---------------------------

    def _lookup_fresh(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._clock() - entry[0] >= self.ttl:
            del self._entries[key]
            self._expirations += 1
            return None
        self._entries.move_to_end(key)
        return entry

    def _store(self, key: Hashable, value: Any) -> None:
        now = self._clock()
        # Sweep entries whose TTL already elapsed before consulting the
        # LRU bound: dead entries otherwise linger until their exact key
        # is looked up again, consuming maxsize and forcing live
        # responses out instead.
        expired = [stored_key
                   for stored_key, (stamp, _) in self._entries.items()
                   if now - stamp >= self.ttl]
        for stored_key in expired:
            del self._entries[stored_key]
        self._expirations += len(expired)
        if key not in self._entries and len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = (now, value)
        self._entries.move_to_end(key)
