"""Trace-driven cache simulation: ground the power law in data.

The analytical model rests on one empirical claim — miss rates follow
``m(C) = m0 * (C/C0)^-alpha`` (paper Section 4.1).  This package closes
the loop the paper closed with real traces: generate (or load) an
access trace, simulate fixed-capacity LRU and set-associative caches
over it, fit alpha *and* a Yavits-style compulsory-miss term to the
simulated curve, and hand back a calibrated
:class:`~repro.core.powerlaw.PowerLawMissModel` ready for the solver.

Layout
------
:mod:`.synthesis`
    Deterministic trace sources: seeded power-law reuse, sequential and
    strided scans, multi-thread shared-footprint mixes, and
    ``workloads.trace_io`` files.
:mod:`.simulate`
    One-pass O(log n) stack-distance simulation producing the entire
    miss-rate-vs-capacity curve, plus a set-associative cross-check.
:mod:`.fitting`
    The Yavits extension ``m(C) = c * C^-alpha + m_c`` (arXiv
    1602.01329): data sharing and footprint growth add a compulsory
    component the pure power law misses.
:mod:`.pipeline`
    :class:`TraceParams` and the chunk protocol
    (``execute_trace_chunk`` / ``assemble_trace_artifact`` /
    ``run_trace``) the durable-jobs executor delegates to — one
    simulation unit per chunk, crash-resume byte-identical.

Entry points: ``bandwidth-wall traces`` (CLI), ``POST /v1/traces``
(service), and the ``ext-trace-lru`` / ``ext-trace-sharing``
experiments.  See ``docs/TRACES.md``.
"""

from .fitting import YavitsFit, calibrated_model, fit_yavits
from .pipeline import (
    TraceParams,
    assemble_trace_artifact,
    execute_trace_chunk,
    run_trace,
)
from .simulate import TraceSimulation, cross_check_curve, simulate_trace
from .synthesis import TRACE_SOURCES, trace_source_streams

__all__ = [
    "TRACE_SOURCES",
    "TraceParams",
    "TraceSimulation",
    "YavitsFit",
    "assemble_trace_artifact",
    "calibrated_model",
    "cross_check_curve",
    "execute_trace_chunk",
    "fit_yavits",
    "run_trace",
    "simulate_trace",
    "trace_source_streams",
]
