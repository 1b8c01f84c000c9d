"""Deterministic trace sources for the simulation pipeline.

Every source maps a *unit* (one simulation's worth of work — a target
alpha, a core count, a stride, a file path) to the streams the
simulator consumes.  All synthetic sources are seeded and pure, so a
chunk re-executed after a crash regenerates byte-identical accesses.

Sources
-------
``powerlaw``
    :class:`~repro.workloads.stack_distance.PowerLawTraceGenerator`
    with a chosen tail index.  Ships a warmup sweep and excludes cold
    misses so the measured curve is *stationary* — the setup under
    which the fitted alpha converges to the generating alpha.
``sequential`` / ``strided``
    A cyclic scan over the working set (stride 1, or a chosen stride).
    Every re-reference has stack distance equal to the footprint, so
    the miss curve is a step: the classic power-law *violator*, kept as
    a fitting stress case.
``sharing``
    A multi-thread shared-footprint mix: every thread draws power-law
    reuse from one constant shared region plus its own private region
    (both un-prefilled, so first touches surface as compulsory misses).
    The capacity component stays a power law by construction while the
    footprint — and hence the compulsory term — grows with the thread
    count, which is the Figure-14 structure the Yavits fit
    (:mod:`repro.traces.fitting`) is built to measure.
``file``
    A ``workloads.trace_io`` trace from disk (gzip transparent).
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from ..workloads import bulk_random
from ..workloads.address_stream import MemoryAccess, TraceColumns
from ..workloads.stack_distance import PowerLawTraceGenerator
from ..workloads.trace_io import read_trace

__all__ = [
    "TRACE_SOURCES",
    "SYNTHETIC_SOURCES",
    "TraceStreams",
    "trace_source_streams",
]

#: All recognised trace sources, in documentation order.
TRACE_SOURCES = ("powerlaw", "sequential", "strided", "sharing", "file")

#: Sources that are generated (seeded, pure) rather than read from
#: disk — the only ones the service accepts over ``POST /v1/traces``.
SYNTHETIC_SOURCES = ("powerlaw", "sequential", "strided", "sharing")


class TraceStreams(NamedTuple):
    """One unit's simulator input: streams plus measurement policy.

    Synthetic sources return :class:`TraceColumns`; a ``file`` source
    returns the file's lazy record iterator.  The simulator accepts
    either (and any other iterable of :class:`MemoryAccess`).
    """

    #: Recorded-then-discarded prefix (warm stack), or ``None``.
    warmup: Optional[Iterable[MemoryAccess]]
    #: The measured access stream.
    stream: Iterable[MemoryAccess]
    #: Drop compulsory misses from the curve (stationary measurement)?
    exclude_cold: bool
    #: Human-readable unit label for payloads and reports.
    label: str


#: Tail index of the sharing mix's reuse streams — the paper's
#: commercial-workload average (Section 4.1).
_SHARING_ALPHA = 0.48

#: Fraction of accesses that hit the shared region; matches
#: ``parsec_like.ParsecLikeWorkload.shared_access_fraction``.
_SHARED_FRACTION = 0.40

#: Line-address gap between per-thread private regions — the same
#: isolation stride ``parsec_like`` uses, far beyond any footprint.
_PRIVATE_REGION_STRIDE = 1 << 22


def _sharing_stream(
    cores: int,
    accesses_per_core: int,
    working_set_lines: int,
    line_bytes: int,
    seed: int,
) -> TraceColumns:
    """Round-robin threads over one shared and ``cores`` private mixes.

    Every stream is an un-prefilled :class:`PowerLawTraceGenerator`:
    reuse distances follow the Pareto law (power-law capacity misses)
    while first touches surface as compulsory misses.  The shared
    region's size is constant, each thread adds a private region, so
    the per-access compulsory rate *declines* as cores grow — the
    trace-level mirror of Figure 14's declining shared-line fraction.

    Access ``i`` belongs to thread ``i % cores`` and takes the next
    access of the shared stream when the selector's ``i``-th draw is
    below :data:`_SHARED_FRACTION`, else the next of its thread's own
    stream; each stream is generated for exactly the accesses it serves.
    """
    total = accesses_per_core * cores
    private_lines = max(2, (working_set_lines * 5) // 8)
    selector = random.Random(seed ^ 0xCA5E)
    shared = bulk_random.uniforms(selector, total) < _SHARED_FRACTION
    thread = (np.arange(total) % cores).astype(np.int32)
    address = np.empty(total, dtype=np.uint64)
    is_write = np.empty(total, dtype=bool)

    def serve(mask: np.ndarray, generator: PowerLawTraceGenerator) -> None:
        served = generator.columns(int(np.count_nonzero(mask)))
        address[mask] = served.address
        is_write[mask] = served.is_write

    serve(shared, PowerLawTraceGenerator(
        alpha=_SHARING_ALPHA,
        working_set_lines=working_set_lines,
        line_bytes=line_bytes,
        seed=seed * 1_000_003 + 1,
        prefill=False,
    ))
    for core in range(cores):
        serve(~shared & (thread == core), PowerLawTraceGenerator(
            alpha=_SHARING_ALPHA,
            working_set_lines=private_lines,
            line_bytes=line_bytes,
            seed=seed * 1_000_003 + 2 + core,
            address_base=(core + 1) * _PRIVATE_REGION_STRIDE * line_bytes,
            prefill=False,
        ))
    return TraceColumns(address, is_write, thread)


def _scan_stream(
    accesses: int,
    working_set_lines: int,
    line_bytes: int,
    stride: int,
) -> TraceColumns:
    """Cyclic strided scan: line ``(i * stride) % working_set_lines``."""
    # (i * stride) mod W without overflow: i and stride mod W stay small.
    lines = (np.arange(accesses, dtype=np.uint64)
             * np.uint64(stride % working_set_lines)) \
        % np.uint64(working_set_lines)
    return TraceColumns(lines * np.uint64(line_bytes),
                        np.zeros(accesses, dtype=bool),
                        np.zeros(accesses, dtype=np.int32))


def trace_source_streams(
    source: str,
    unit: Union[int, float, str],
    *,
    accesses: int,
    working_set_lines: int,
    line_bytes: int,
    seed: int = 0,
) -> TraceStreams:
    """Build one unit's streams.

    ``unit`` is source-specific: the generating alpha (``powerlaw``),
    the core count (``sharing``), the stride (``sequential`` /
    ``strided``) or the file path (``file``).  For ``sharing``,
    ``accesses`` is per core — total work scales with the thread count,
    matching the paper's Figure 14 problem-scaling assumption.
    """
    if source == "powerlaw":
        generator = PowerLawTraceGenerator(
            alpha=float(unit),
            working_set_lines=working_set_lines,
            line_bytes=line_bytes,
            seed=seed,
        )
        return TraceStreams(
            warmup=generator.warmup_columns(),
            stream=generator.columns(accesses),
            exclude_cold=True,
            label=f"alpha={float(unit):g}",
        )
    if source in ("sequential", "strided"):
        step = 1 if source == "sequential" else int(unit)
        return TraceStreams(
            warmup=None,
            stream=_scan_stream(accesses, working_set_lines, line_bytes,
                                step),
            exclude_cold=True,
            label=f"stride={step}",
        )
    if source == "sharing":
        cores = int(unit)
        return TraceStreams(
            warmup=None,
            stream=_sharing_stream(cores, accesses, working_set_lines,
                                   line_bytes, seed),
            exclude_cold=False,
            label=f"cores={cores}",
        )
    if source == "file":
        path = str(unit)
        return TraceStreams(
            warmup=None,
            stream=read_trace(path),
            exclude_cold=False,
            label=f"file={path}",
        )
    raise ValueError(
        f"unknown trace source {source!r}; choose from {list(TRACE_SOURCES)}"
    )
