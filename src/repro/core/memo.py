"""Memoized evaluation of the bandwidth-wall solve.

Every paper artifact is a sweep over ``(die CEAs, alpha, budget,
technique)`` grids built on the same power-law model, so the figure
drivers repeat identical :meth:`BandwidthWallModel.supportable_cores`
solves thousands of times (every sweep re-solves the baseline point,
the four-generation studies share their grids, ...).  The solve is a
pure function of a small, fully-hashable key:

* the model is a frozen dataclass (``baseline`` :class:`ChipDesign` +
  ``alpha``),
* the query is ``(total_ceas, traffic_budget)`` plus a frozen
  :class:`TechniqueEffect`,

so the result — a frozen :class:`ScalingSolution` — can be cached and
shared freely.  :class:`MemoCache` is that cache;
:mod:`repro.core.scaling` consults the process-global instance on every
solve, and the sweep engine (:mod:`repro.experiments.engine`) reports
its hit rate.

The memoization contract
------------------------
A cache entry is keyed by **every** input that can influence the solve
(:class:`ModelKey`), all of them immutable value types, and the cached
value is itself immutable, so sharing one instance between callers is
safe.  Entries never go stale: the solve depends on nothing but its
key (no I/O, no global configuration).  The cache is per-process —
parallel sweep workers each warm their own — and bounded (FIFO
eviction) so long-lived services cannot leak memory.  Disable it with
:func:`configure` or the :func:`disabled` context manager when timing
the raw solver.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple, TYPE_CHECKING

from .area import ChipDesign
from .techniques import TechniqueEffect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .scaling import ScalingSolution

__all__ = [
    "ModelKey",
    "CacheStats",
    "MemoSnapshot",
    "MemoCache",
    "global_cache",
    "active_cache",
    "cache_stats",
    "stats_snapshot",
    "clear_cache",
    "configure",
    "disabled",
    "install_cache",
]

#: Default bound on the process-global cache.  Design-space sweeps touch
#: tens of thousands of distinct points; one entry is a few hundred
#: bytes, so the default caps memory at tens of MB.
DEFAULT_MAXSIZE = 100_000


@dataclass(frozen=True)
class ModelKey:
    """Everything that determines one ``supportable_cores`` solve.

    All five fields are immutable value types (frozen dataclasses or
    floats), so the key is hashable and equality means "same solve".
    """

    baseline: ChipDesign
    alpha: float
    total_ceas: float
    traffic_budget: float
    effect: TechniqueEffect


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas between this snapshot and an earlier one."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
        )


@dataclass(frozen=True)
class MemoSnapshot:
    """A public, point-in-time view of one memo cache's state.

    Unlike :class:`CacheStats` (which only carries counters), a snapshot
    also records the cache's configuration, so observability layers (CLI
    ``--timing``, the service's ``/metrics`` endpoint) never need to
    reach into private fields.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    enabled: bool

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat form for JSON payloads and metric exposition."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "size": self.size,
            "maxsize": self.maxsize,
            "enabled": self.enabled,
        }


class MemoCache:
    """A bounded, thread-safe memo table for scaling solves.

    FIFO eviction keeps the implementation observable and deterministic;
    sweep workloads touch each key a handful of times in quick
    succession, so recency tracking buys nothing.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[ModelKey, ScalingSolution]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: ModelKey) -> Optional["ScalingSolution"]:
        """Return the cached solution for ``key``, counting hit or miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
            return value

    def lookup_many(
        self, keys: Sequence[ModelKey]
    ) -> List[Optional["ScalingSolution"]]:
        """Batch :meth:`lookup`: one lock acquisition for a whole grid.

        Returns hits and ``None`` misses in key order; the hit/miss
        counters advance exactly as per-key lookups would, so sweep
        cache-rate reporting is unaffected by the batch path.
        """
        with self._lock:
            values = [self._entries.get(key) for key in keys]
            hits = sum(1 for value in values if value is not None)
            self._hits += hits
            self._misses += len(values) - hits
            return values

    def store(self, key: ModelKey, value: "ScalingSolution") -> None:
        """Insert one solve result, evicting the oldest entry when full."""
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
            self._entries[key] = value

    def store_many(
        self, items: Iterable[Tuple[ModelKey, "ScalingSolution"]]
    ) -> None:
        """Batch :meth:`store` under one lock acquisition.

        FIFO eviction applies entry-by-entry, so interleaving with
        per-key stores is indistinguishable from calling
        :meth:`store` in a loop.
        """
        with self._lock:
            for key, value in items:
                if key not in self._entries \
                        and len(self._entries) >= self.maxsize:
                    self._entries.popitem(last=False)
                self._entries[key] = value

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, len(self._entries))

    def stats_snapshot(self, *, enabled: bool = True) -> MemoSnapshot:
        """Atomic counters-plus-configuration snapshot (thread-safe).

        ``enabled`` is the caller's view of whether lookups currently
        route through this cache; the module-level
        :func:`stats_snapshot` fills it in for the global instance.
        """
        with self._lock:
            return MemoSnapshot(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self.maxsize,
                enabled=enabled,
            )

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_GLOBAL_CACHE = MemoCache()
_ENABLED = True


def global_cache() -> MemoCache:
    """The process-global cache (also valid while memoization is off)."""
    return _GLOBAL_CACHE


def active_cache() -> Optional[MemoCache]:
    """The cache the solve path should consult, or None when disabled."""
    return _GLOBAL_CACHE if _ENABLED else None


def cache_stats() -> CacheStats:
    """Snapshot of the global cache's counters."""
    return _GLOBAL_CACHE.stats()


def stats_snapshot() -> MemoSnapshot:
    """Public, thread-safe snapshot of the global solve memo.

    The supported way for observability consumers (CLI ``--timing``,
    the service's ``/metrics``) to read hit/miss/size without touching
    private state.
    """
    return _GLOBAL_CACHE.stats_snapshot(enabled=_ENABLED)


def clear_cache() -> None:
    """Empty the global cache and reset its counters."""
    _GLOBAL_CACHE.clear()


def configure(*, enabled: bool) -> None:
    """Globally enable or disable memoized solving."""
    global _ENABLED
    _ENABLED = enabled


def install_cache(cache: MemoCache) -> MemoCache:
    """Swap the process-global memo for ``cache``; returns the previous.

    Anything honouring the :class:`MemoCache` interface qualifies.
    Callers restore the returned instance on shutdown.  Nothing in the
    program calls it; it goes together with
    :mod:`repro.scaleout.shared_cache`.
    """
    global _GLOBAL_CACHE
    previous = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return previous


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Temporarily bypass the cache (e.g. to time the raw solver)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
