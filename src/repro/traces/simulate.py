"""Cache simulation over a trace: the whole miss curve in one pass.

The measurement of record is Mattson stack-distance profiling
(:class:`~repro.workloads.stack_distance.StackDistanceProfiler`): one
offline kernel run over the whole trace yields the exact
fully-associative LRU miss rate at *every* capacity simultaneously.
:func:`cross_check_curve` replays the same trace through a realistic
set-associative organisation — one offline LRU pass per capacity — so
tests can bound how far finite associativity bends the curve the fits
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..cache.set_assoc import lru_misses
from ..workloads.address_stream import MemoryAccess, as_columns
from ..workloads.stack_distance import MissCurve, StackDistanceProfiler

__all__ = [
    "TraceSimulation",
    "simulate_trace",
    "cross_check_curve",
    "curve_max_delta",
]


@dataclass(frozen=True)
class TraceSimulation:
    """One trace's measured miss behaviour across all capacities."""

    curve: MissCurve
    #: The curve with cold misses always included — what a real cache
    #: sees, and the right comparand for the set-associative check.
    raw_curve: MissCurve
    accesses: int
    cold_misses: int
    distinct_lines: int
    exclude_cold: bool

    @property
    def compulsory_rate(self) -> float:
        """Cold misses per access — the floor a Yavits fit should find."""
        if self.accesses == 0:
            return 0.0
        return self.cold_misses / self.accesses


def simulate_trace(
    stream: Iterable[MemoryAccess],
    cache_line_counts: Sequence[int],
    *,
    line_bytes: int = 64,
    warmup: Optional[Iterable[MemoryAccess]] = None,
    exclude_cold: bool = False,
) -> TraceSimulation:
    """Profile a trace and evaluate its miss curve at every capacity.

    ``stream`` and ``warmup`` are
    :class:`~repro.workloads.address_stream.TraceColumns` or any
    iterables of :class:`MemoryAccess`; both give identical results.
    ``warmup`` accesses are recorded (they warm the LRU recency state)
    and then dropped from the statistics, so measurement starts
    stationary; ``exclude_cold`` additionally drops residual compulsory
    misses from the curve — the right setting for pure alpha fitting,
    and the wrong one when the compulsory component *is* the signal
    (sharing studies).
    """
    profiler = StackDistanceProfiler()
    if warmup is not None:
        profiler.record_stream(warmup, line_bytes=line_bytes)
        profiler.reset_statistics()
    profiler.record_stream(stream, line_bytes=line_bytes)
    raw_curve = profiler.miss_curve(cache_line_counts)
    curve = (profiler.miss_curve(cache_line_counts, exclude_cold=True)
             if exclude_cold else raw_curve)
    return TraceSimulation(
        curve=curve,
        raw_curve=raw_curve,
        accesses=profiler.accesses,
        cold_misses=profiler.cold_misses,
        distinct_lines=profiler.distinct_lines,
        exclude_cold=exclude_cold,
    )


def cross_check_curve(
    stream: Iterable[MemoryAccess],
    cache_line_counts: Sequence[int],
    *,
    line_bytes: int = 64,
    associativity: int = 8,
) -> MissCurve:
    """The same curve through a set-associative LRU cache.

    ``stream`` is :class:`~repro.workloads.address_stream.TraceColumns`
    or any iterable of accesses.  Each capacity is one
    :func:`~repro.cache.set_assoc.lru_misses` pass, whose miss rates
    equal replaying the stream through a fresh
    :class:`~repro.cache.set_assoc.SetAssociativeCache` one access at a
    time.  Includes cold misses (a real cache cannot exclude them);
    compare against a ``simulate_trace`` run with
    ``exclude_cold=False``.
    """
    columns = as_columns(stream)
    if not len(columns):
        raise ValueError("no accesses recorded")
    line_counts = tuple(sorted(set(cache_line_counts)))
    rates = tuple(
        int(np.count_nonzero(lru_misses(columns.address, count * line_bytes,
                                        line_bytes, associativity)))
        / len(columns)
        for count in line_counts
    )
    return MissCurve(line_counts, rates)


def curve_max_delta(reference: MissCurve, other: MissCurve) -> float:
    """Largest |miss-rate difference| at the capacities both curves share."""
    other_rates = dict(zip(other.line_counts, other.miss_rates))
    deltas = [
        abs(rate - other_rates[count])
        for count, rate in zip(reference.line_counts, reference.miss_rates)
        if count in other_rates
    ]
    if not deltas:
        raise ValueError("curves share no capacities to compare")
    return max(deltas)
