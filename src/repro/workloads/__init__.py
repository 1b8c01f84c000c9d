"""Synthetic workload substrate.

Deterministic generators that stand in for the paper's proprietary
traces (commercial workloads, SPEC 2006, PARSEC), constructed so the
statistical properties the analytical model consumes — power-law miss
curves with known alpha, write-back ratios, unused-word fractions,
shared-data structure — are controlled and can be independently
re-measured.
"""

from .address_stream import (
    AddressStream,
    MemoryAccess,
    interleave_round_robin,
    take,
)
from .commercial import (
    COMMERCIAL_WORKLOADS,
    WorkloadSpec,
    commercial_average_alpha,
    commercial_generator,
)
from .parsec_like import ParsecLikeWorkload
from .trace_io import TraceFormatError, read_trace, write_trace
from .spec2006 import (
    SPEC2006_WORKLOADS,
    DiscreteWorkingSetGenerator,
    spec2006_generator,
)
from .stack_distance import (
    MissCurve,
    ParetoStackDistanceSampler,
    PowerLawTraceGenerator,
    StackDistanceProfiler,
)

__all__ = [
    "MemoryAccess",
    "AddressStream",
    "take",
    "interleave_round_robin",
    "ParetoStackDistanceSampler",
    "PowerLawTraceGenerator",
    "StackDistanceProfiler",
    "MissCurve",
    "WorkloadSpec",
    "COMMERCIAL_WORKLOADS",
    "commercial_generator",
    "commercial_average_alpha",
    "DiscreteWorkingSetGenerator",
    "SPEC2006_WORKLOADS",
    "spec2006_generator",
    "ParsecLikeWorkload",
    "read_trace",
    "write_trace",
    "TraceFormatError",
]
