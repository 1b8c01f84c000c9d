"""A bounded memo table for bandwidth-wall solves, unused by the program.

A solve is a pure function of a small, fully-hashable key
(:class:`ModelKey`: the frozen baseline :class:`ChipDesign`, alpha,
die size, budget and frozen :class:`TechniqueEffect`), and its result
is a frozen :class:`ScalingSolution`, so the two could be cached and
shared freely.  The solve path no longer does: one solve is a guarded
bisection of tens of microseconds, and a process-global memo in front
of it cost about as much as it saved.

:class:`MemoCache` stays only because the dormant shared tier
(:mod:`repro.scaleout.shared_cache`) subclasses it and wallbench's span
wrappers name its lookups; it leaves with the tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, \
    TYPE_CHECKING

from .area import ChipDesign
from .techniques import TechniqueEffect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .scaling import ScalingSolution

__all__ = [
    "ModelKey",
    "CacheStats",
    "MemoCache",
    "DEFAULT_MAXSIZE",
]

#: Default bound on one cache.  One entry is a few hundred bytes, so
#: the default caps memory at tens of MB.
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

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
