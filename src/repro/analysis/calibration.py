"""Measurement pipelines: run substrates, extract the model's inputs.

The paper's analytical model consumes a handful of measured scalars:
alpha (per workload), the write-back ratio ``r_wb``, the unused-word
fraction, and the shared-line fraction.  Each function here runs the
corresponding simulator over a synthetic workload and returns those
scalars, closing the measure→model loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..cache.set_assoc import SetAssociativeCache
from ..cache.shared_l2 import replay_shared_fraction
from ..workloads.address_stream import MemoryAccess
from ..workloads.parsec_like import ParsecLikeWorkload
from ..workloads.stack_distance import MissCurve, StackDistanceProfiler
from .fitting import PowerLawFit, fit_miss_curve

__all__ = [
    "measure_miss_curve",
    "WorkloadCalibration",
    "calibrate_workload",
    "measure_sharing_fraction",
    "sharing_vs_cores",
]

_DEFAULT_LINE_BYTES = 64


def measure_miss_curve(
    stream: Iterable[MemoryAccess],
    cache_line_counts: Sequence[int],
    line_bytes: int = _DEFAULT_LINE_BYTES,
    *,
    exclude_cold: bool = False,
    warmup_stream: Optional[Iterable[MemoryAccess]] = None,
) -> MissCurve:
    """Miss rates at every capacity from a single stack-distance pass.

    ``stream`` (and ``warmup_stream``) may be
    :class:`~repro.workloads.address_stream.TraceColumns` — the fast
    path — or any iterable of accesses.

    Exact for fully-associative LRU caches; the paper's power-law fits
    are capacity-driven, so this is the measurement of record
    (:func:`repro.traces.simulate.cross_check_curve` cross-checks it
    against set-associative caches in the tests).

    Short synthetic runs need *stationary* measurement to fit alpha
    faithfully: pass the generator's ``warmup_accesses()`` as
    ``warmup_stream`` (recorded but excluded from statistics) so reuse
    distances are measured against a warm stack, and optionally
    ``exclude_cold=True`` to drop residual compulsory misses.
    """
    profiler = StackDistanceProfiler()
    if warmup_stream is not None:
        profiler.record_stream(warmup_stream, line_bytes=line_bytes)
        profiler.reset_statistics()
    profiler.record_stream(stream, line_bytes=line_bytes)
    return profiler.miss_curve(cache_line_counts, exclude_cold=exclude_cold)


@dataclass(frozen=True)
class WorkloadCalibration:
    """Everything the analytical model needs to know about one workload."""

    name: str
    fit: PowerLawFit
    curve: MissCurve
    writeback_ratio: float
    unused_word_fraction: float

    @property
    def alpha(self) -> float:
        return self.fit.alpha


def calibrate_workload(
    name: str,
    stream_factory,
    *,
    cache_line_counts: Sequence[int] = tuple(2**k for k in range(4, 13)),
    reference_cache_bytes: int = 64 * 1024,
    line_bytes: int = _DEFAULT_LINE_BYTES,
    fit_max_lines: Optional[int] = None,
    warmup_factory=None,
) -> WorkloadCalibration:
    """Full calibration: alpha fit + r_wb + unused-word fraction.

    Runs the stack-distance profiler for the miss curve, then one
    set-associative simulation at ``reference_cache_bytes`` for the
    write-back and word-usage statistics (which need dirty bits and
    per-word bitmaps, not just reuse distances).  Pass the generator's
    ``warmup_accesses`` as ``warmup_factory`` for stationary alpha
    measurement.
    """
    warmup = warmup_factory() if warmup_factory is not None else None
    curve = measure_miss_curve(
        stream_factory(), cache_line_counts, line_bytes=line_bytes,
        warmup_stream=warmup,
    )
    fit = fit_miss_curve(curve, max_lines=fit_max_lines)

    cache = SetAssociativeCache(
        size_bytes=reference_cache_bytes, line_bytes=line_bytes
    )
    for access in stream_factory():
        cache.access(access.address, is_write=access.is_write,
                     core_id=access.core_id)
    cache.flush()
    stats = cache.stats
    return WorkloadCalibration(
        name=name,
        fit=fit,
        curve=curve,
        writeback_ratio=stats.writeback_ratio,
        unused_word_fraction=stats.unused_word_fraction,
    )


def measure_sharing_fraction(
    workload: ParsecLikeWorkload,
    *,
    accesses: int = 200_000,
    cache_bytes: int = 2 * 1024 * 1024,
    line_bytes: int = _DEFAULT_LINE_BYTES,
) -> float:
    """Figure 14's measurement: % of shared L2 lines with >= 2 sharers.

    Exactly what a :class:`~repro.cache.shared_l2.SharedL2Cache` of
    ``cache_bytes`` reports after replaying the workload, computed from
    the whole trace at once.
    """
    return replay_shared_fraction(
        workload.columns(accesses),
        size_bytes=cache_bytes,
        num_cores=workload.num_threads,
        line_bytes=line_bytes,
    )


def sharing_vs_cores(
    core_counts: Sequence[int] = (4, 8, 16),
    *,
    accesses_per_core: int = 30_000,
    cache_bytes: int = 2 * 1024 * 1024,
    seed: int = 0,
    **workload_kwargs,
) -> List[Tuple[int, float]]:
    """The Figure 14 sweep: shared-line fraction for each core count.

    Accesses scale with the core count (each thread does the same work),
    matching the paper's problem-scaling assumption.
    """
    results = []
    for cores in core_counts:
        workload = ParsecLikeWorkload(
            num_threads=cores, seed=seed, **workload_kwargs
        )
        fraction = measure_sharing_fraction(
            workload,
            accesses=accesses_per_core * cores,
            cache_bytes=cache_bytes,
        )
        results.append((cores, fraction))
    return results
