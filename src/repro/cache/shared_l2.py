"""A shared L2 with per-line sharing measurement (Figure 14's apparatus).

The paper measures PARSEC data sharing on "a shared L2 cache multicore
simulator": *each time a cache line is evicted from the shared cache, we
record whether the block is accessed by more than one core or not during
the block's lifetime*.  :class:`SharedL2Cache` implements exactly that
protocol on top of :class:`~repro.cache.set_assoc.SetAssociativeCache`,
whose lines already carry sharer sets.

``shared_line_fraction()`` is the figure's y-axis ("% of Shared Cache
Lines"); call :meth:`drain` first so lines still resident at the end of
the run contribute their residency too.  :func:`replay_shared_fraction`
computes the same number for a whole trace at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..workloads.address_stream import TraceColumns
from .replacement import ReplacementPolicy
from .set_assoc import SetAssociativeCache, lru_misses
from .stats import CacheStats

__all__ = ["SharedL2Cache", "replay_shared_fraction"]


class SharedL2Cache:
    """A single L2 shared by ``num_cores`` cores.

    The cache itself is physically unified (possibly banked in a real
    design, which does not affect sharing statistics); each access is
    attributed to the issuing core so a line's sharer set accumulates
    over its residency.
    """

    def __init__(
        self,
        size_bytes: int,
        num_cores: int,
        line_bytes: int = 64,
        associativity: int = 16,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self._cache = SetAssociativeCache(
            size_bytes=size_bytes,
            line_bytes=line_bytes,
            associativity=associativity,
            policy=policy,
        )
        self._drained = False

    def access(self, address: int, core_id: int, is_write: bool = False):
        """One access from ``core_id``; returns the AccessResult."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range for {self.num_cores} cores"
            )
        if self._drained:
            raise RuntimeError("cache already drained; create a new instance")
        return self._cache.access(address, is_write=is_write, core_id=core_id)

    def drain(self) -> None:
        """Flush resident lines so their sharing metadata is counted."""
        if not self._drained:
            self._cache.flush()
            self._drained = True

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def shared_line_fraction(self, *, include_resident: bool = True) -> float:
        """Fraction of lines with >= 2 sharers over their lifetime.

        With ``include_resident`` (the default), lines still resident are
        drained first, matching an end-of-run measurement.
        """
        if include_resident:
            self.drain()
        return self.stats.shared_line_fraction

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


def replay_shared_fraction(
    trace: TraceColumns,
    size_bytes: int,
    num_cores: int,
    line_bytes: int = 64,
    associativity: int = 16,
) -> float:
    """``SharedL2Cache(...).shared_line_fraction()`` after replaying
    ``trace``, computed offline from the LRU miss flags.

    A residency is a line's accesses from one miss up to its next miss
    (or the end of the trace, which the final drain closes), so every
    miss ends exactly one residency.  Sorting accesses by line (stably,
    so each line's accesses stay in time order) makes every residency a
    contiguous run starting at a miss; it is shared when its accesses
    come from at least two cores.
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    cores = trace.core_id
    if len(cores) and not 0 <= cores.min() <= cores.max() < num_cores:
        raise ValueError(f"core ids out of range for {num_cores} cores")
    misses = lru_misses(trace.address, size_bytes, line_bytes,
                        associativity)
    order = np.argsort(trace.lines(line_bytes), kind="stable")
    starts = np.flatnonzero(misses[order])
    if not len(starts):
        raise ValueError("no evictions recorded")
    by_line = cores[order]
    shared = np.minimum.reduceat(by_line, starts) \
        != np.maximum.reduceat(by_line, starts)
    return int(np.count_nonzero(shared)) / len(starts)
