"""The trace pipeline's chunk protocol: simulate → fit → calibrate.

:class:`TraceParams` is the resolved, canonical description of one
trace job.  A job is a list of *units* — one complete simulation each
(a generating alpha, a core count, a stride, or a trace file) — and one
unit is one chunk: the durable-jobs executor checkpoints after every
simulation, and a crash loses at most one unit's work.

Everything is a pure function of the params (seeded generators, no
wall clock), so :func:`run_trace` — execute every chunk, assemble — is
byte-identical to the chunked jobs path by construction, the same
contract :mod:`repro.optimize.search` established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Sequence, Tuple, Union

from ..workloads.address_stream import as_columns
from .fitting import calibrated_model, fit_yavits
from .simulate import cross_check_curve, curve_max_delta, simulate_trace
from .synthesis import TRACE_SOURCES, trace_source_streams

__all__ = [
    "DEFAULT_TRACE_ACCESSES",
    "DEFAULT_LINE_COUNTS",
    "DEFAULT_UNITS",
    "TraceParams",
    "execute_trace_chunk",
    "assemble_trace_artifact",
    "run_trace",
]

#: Measured accesses per unit (per core for ``sharing`` sources).
DEFAULT_TRACE_ACCESSES = 100_000

#: Capacities evaluated, in 64B lines (1 KB ... 512 KB with the
#: default line size — the power-law regime of the default footprint).
DEFAULT_LINE_COUNTS: Tuple[int, ...] = tuple(2**k for k in range(4, 14))

#: Default unit list per source: paper-anchored alphas for ``powerlaw``
#: (OLTP-2, commercial average, OLTP-4), Figure 14's core counts for
#: ``sharing``.
DEFAULT_UNITS: Dict[str, Tuple[Union[int, float], ...]] = {
    "powerlaw": (0.36, 0.48, 0.62),
    "sequential": (1,),
    "strided": (4,),
    "sharing": (4, 8, 16),
}

Unit = Union[int, float, str]

#: Keys of :meth:`TraceParams.to_items`, in item (sorted) order.
_ITEM_FIELDS = (
    "accesses", "associativity", "fit_max_lines", "fit_min_lines",
    "line_bytes", "line_counts", "seed", "source", "units",
    "working_set_lines",
)


@dataclass(frozen=True)
class TraceParams:
    """The resolved, canonical inputs of one trace-simulation run."""

    source: str
    units: Tuple[Unit, ...]
    accesses: int = DEFAULT_TRACE_ACCESSES
    working_set_lines: int = 1 << 14
    line_bytes: int = 64
    seed: int = 0
    line_counts: Tuple[int, ...] = DEFAULT_LINE_COUNTS
    #: Fit range bounds in lines; 0 means unbounded on that side.
    fit_min_lines: int = 0
    fit_max_lines: int = 2048
    #: Ways for the set-associative cross-check; 0 skips it.
    associativity: int = 0

    def __post_init__(self) -> None:
        if self.source not in TRACE_SOURCES:
            raise ValueError(
                f"unknown trace source {self.source!r}; choose from "
                f"{list(TRACE_SOURCES)}"
            )
        if not self.units:
            raise ValueError("need at least one simulation unit")
        for unit in self.units:
            self._check_unit(unit)
        if self.accesses < 1:
            raise ValueError(
                f"accesses must be positive, got {self.accesses}"
            )
        if self.working_set_lines < 2:
            raise ValueError(
                f"working_set_lines must be >= 2, "
                f"got {self.working_set_lines}"
            )
        if self.line_bytes < 8 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two >= 8, "
                f"got {self.line_bytes}"
            )
        if not self.line_counts:
            raise ValueError("need at least one cache capacity")
        if any(count < 1 for count in self.line_counts):
            raise ValueError("cache capacities must be >= 1 line")
        if list(self.line_counts) != sorted(set(self.line_counts)):
            raise ValueError(
                "line_counts must be strictly ascending "
                "(use TraceParams.create to canonicalise)"
            )
        if self.fit_min_lines < 0 or self.fit_max_lines < 0:
            raise ValueError("fit bounds must be non-negative")
        if self.associativity < 0:
            raise ValueError(
                f"associativity must be >= 0, got {self.associativity}"
            )

    def _check_unit(self, unit: Unit) -> None:
        if self.source == "powerlaw":
            if not isinstance(unit, float) or not 0 < unit <= 4:
                raise ValueError(
                    f"powerlaw units are alphas in (0, 4], got {unit!r}"
                )
        elif self.source in ("sequential", "strided", "sharing"):
            if not isinstance(unit, int) or isinstance(unit, bool) \
                    or unit < 1:
                raise ValueError(
                    f"{self.source} units are positive integers, "
                    f"got {unit!r}"
                )
        elif not isinstance(unit, str) or not unit:
            raise ValueError(
                f"file units are non-empty paths, got {unit!r}"
            )

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, *, source: str,
               units: Any = None,
               accesses: int = DEFAULT_TRACE_ACCESSES,
               working_set_lines: int = 1 << 14,
               line_bytes: int = 64,
               seed: int = 0,
               line_counts: Any = None,
               fit_min_lines: int = 0,
               fit_max_lines: int = 2048,
               associativity: int = 0) -> "TraceParams":
        """Canonicalising constructor (the classmethods' entry point).

        Units coerce to the source's natural type; capacities sort and
        deduplicate — so two spellings of the same run produce equal
        params, equal chunk plans and equal artifact bytes.
        """
        if units is None:
            units = DEFAULT_UNITS.get(source, ())
        if source == "powerlaw":
            units = tuple(float(u) for u in units)
        elif source in ("sequential", "strided", "sharing"):
            units = tuple(int(u) for u in units)
        else:
            units = tuple(str(u) for u in units)
        counts = (DEFAULT_LINE_COUNTS if line_counts is None
                  else tuple(sorted(set(int(c) for c in line_counts))))
        return cls(
            source=source,
            units=units,
            accesses=int(accesses),
            working_set_lines=int(working_set_lines),
            line_bytes=int(line_bytes),
            seed=int(seed),
            line_counts=counts,
            fit_min_lines=int(fit_min_lines),
            fit_max_lines=int(fit_max_lines),
            associativity=int(associativity),
        )

    @classmethod
    def from_items(cls, items: Any) -> "TraceParams":
        """Inverse of :meth:`to_items` (tolerates JSON's list-for-tuple)."""
        payload = dict(items)
        missing = [key for key in _ITEM_FIELDS if key not in payload]
        if missing:
            raise ValueError(f"trace params missing fields: {missing}")
        return cls(
            source=str(payload["source"]),
            units=tuple(payload["units"]),
            accesses=int(payload["accesses"]),
            working_set_lines=int(payload["working_set_lines"]),
            line_bytes=int(payload["line_bytes"]),
            seed=int(payload["seed"]),
            line_counts=tuple(int(c) for c in payload["line_counts"]),
            fit_min_lines=int(payload["fit_min_lines"]),
            fit_max_lines=int(payload["fit_max_lines"]),
            associativity=int(payload["associativity"]),
        )

    def to_items(self) -> Tuple[Tuple[str, Any], ...]:
        """Hashable, sorted key/value form for :class:`JobSpec` storage."""
        return (
            ("accesses", self.accesses),
            ("associativity", self.associativity),
            ("fit_max_lines", self.fit_max_lines),
            ("fit_min_lines", self.fit_min_lines),
            ("line_bytes", self.line_bytes),
            ("line_counts", self.line_counts),
            ("seed", self.seed),
            ("source", self.source),
            ("units", self.units),
            ("working_set_lines", self.working_set_lines),
        )

    # -- planning ------------------------------------------------------

    def chunk_count(self, chunk_size: int = 0) -> int:
        """One unit per chunk, whatever ``chunk_size`` asks for."""
        return len(self.units)

    def reference_line_count(self) -> int:
        """Capacity anchoring the calibrated model (curve midpoint)."""
        return self.line_counts[len(self.line_counts) // 2]

    @property
    def total_accesses(self) -> int:
        """Accesses simulated across all units (``sharing`` units
        scale with their core count)."""
        if self.source == "sharing":
            return sum(self.accesses * int(unit) for unit in self.units)
        return self.accesses * len(self.units)

    # -- job-kind protocol (see repro.jobs.spec.KINDS) -----------------

    default_chunk: ClassVar[int] = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"trace": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in self.to_items()
        }}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceParams":
        return cls.from_items(payload.get("trace", {}))

    def execute_chunk(self, index: int, chunk_size: int,
                      previous: Optional[Dict[str, Any]]
                      ) -> Dict[str, Any]:
        return execute_trace_chunk(self, index)

    def assemble(self, payloads: Sequence[Dict[str, Any]]
                 ) -> Dict[str, Any]:
        return assemble_trace_artifact(self, payloads)

    def cost(self) -> int:
        """Admission-control cost: accesses times the passes made over
        each unit's trace — one profiling pass, plus one per capacity
        when ``associativity`` asks for the cross-check."""
        passes = 1 + len(self.line_counts) if self.associativity > 0 else 1
        return self.total_accesses * passes


# ----------------------------------------------------------------------
# Chunk protocol (behind the params' job-kind methods)
# ----------------------------------------------------------------------


def _fit_bounds(params: TraceParams) -> Dict[str, Any]:
    return {
        "min_lines": params.fit_min_lines or None,
        "max_lines": params.fit_max_lines or None,
    }


def execute_trace_chunk(params: TraceParams,
                        index: int) -> Dict[str, Any]:
    """Simulate one unit end to end; returns its JSON-ready payload.

    Degenerate curves (a scan's step function, a flat curve) record the
    fit *error message* instead of failing the chunk — a trace job over
    a power-law violator should report the violation, not crash.
    """
    count = params.chunk_count()
    if not 0 <= index < count:
        raise IndexError(
            f"chunk index {index} out of range for {count} chunks"
        )
    unit = params.units[index]
    streams = trace_source_streams(
        params.source, unit,
        accesses=params.accesses,
        working_set_lines=params.working_set_lines,
        line_bytes=params.line_bytes,
        seed=params.seed,
    )
    # Columns, so the cross-check can reuse a file source's stream.
    stream = as_columns(streams.stream)
    simulation = simulate_trace(
        stream, params.line_counts,
        line_bytes=params.line_bytes,
        warmup=streams.warmup,
        exclude_cold=streams.exclude_cold,
    )
    bounds = _fit_bounds(params)

    from ..analysis.fitting import fit_miss_curve

    payload: Dict[str, Any] = {
        "unit": streams.label,
        "unit_value": unit,
        "accesses": simulation.accesses,
        "cold_misses": simulation.cold_misses,
        "distinct_lines": simulation.distinct_lines,
        "exclude_cold": simulation.exclude_cold,
        "curve": {
            "line_counts": list(simulation.curve.line_counts),
            "miss_rates": list(simulation.curve.miss_rates),
        },
    }
    try:
        power = fit_miss_curve(simulation.curve, **bounds)
        payload["power_fit"] = {
            "alpha": power.alpha,
            "coefficient": power.coefficient,
            "r_squared": power.r_squared,
            "points": power.points,
        }
    except ValueError as error:
        payload["power_fit"] = {"error": str(error)}
    try:
        yavits = fit_yavits(simulation.curve, **bounds)
        payload["yavits_fit"] = {
            "alpha": yavits.alpha,
            "coefficient": yavits.coefficient,
            "compulsory": yavits.compulsory,
            "r_squared": yavits.r_squared,
            "max_abs_residual": yavits.max_abs_residual,
            "residuals": list(yavits.residuals),
            "points": yavits.points,
        }
        try:
            model = calibrated_model(
                yavits,
                reference_lines=params.reference_line_count(),
                line_bytes=params.line_bytes,
            )
            payload["model"] = {
                "alpha": model.alpha,
                "baseline_miss_rate": model.baseline_miss_rate,
                "baseline_cache_size_bytes": model.baseline_cache_size,
            }
        except ValueError as error:
            payload["model"] = {"error": str(error)}
    except ValueError as error:
        payload["yavits_fit"] = {"error": str(error)}
        payload["model"] = {"error": "no extended fit to calibrate from"}

    if params.associativity > 0:
        checked = cross_check_curve(
            stream, params.line_counts,
            line_bytes=params.line_bytes,
            associativity=params.associativity,
        )
        payload["cross_check"] = {
            "associativity": params.associativity,
            "max_delta": curve_max_delta(simulation.raw_curve, checked),
            "miss_rates": list(checked.miss_rates),
        }
    return payload


def assemble_trace_artifact(
    params: TraceParams,
    payloads: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold per-unit payloads into the final trace artifact."""
    fitted = [payload["yavits_fit"].get("alpha")
              for payload in payloads]
    present = [alpha for alpha in fitted if alpha is not None]
    compulsory = [payload["yavits_fit"].get("compulsory")
                  for payload in payloads]
    floors = [value for value in compulsory if value is not None]
    artifact: Dict[str, Any] = {
        "kind": "trace",
        "source": params.source,
        "request": {
            "source": params.source,
            "units": list(params.units),
            "accesses": params.accesses,
            "working_set_lines": params.working_set_lines,
            "line_bytes": params.line_bytes,
            "seed": params.seed,
            "line_counts": list(params.line_counts),
            "fit_min_lines": params.fit_min_lines,
            "fit_max_lines": params.fit_max_lines,
            "associativity": params.associativity,
        },
        "count": len(payloads),
        "fitted_alphas": fitted,
        "units": list(payloads),
    }
    if present:
        artifact["alpha_range"] = {
            "min": min(present), "max": max(present),
        }
    if floors:
        artifact["compulsory_range"] = {
            "min": min(floors), "max": max(floors),
        }
    return artifact


def run_trace(params: TraceParams) -> Dict[str, Any]:
    """Run a whole trace job in-process (CLI and benchmark entry point).

    Identical to executing every chunk and assembling — literally, so
    the serial path and the jobs path are byte-identical by
    construction.
    """
    payloads = [execute_trace_chunk(params, index)
                for index in range(params.chunk_count())]
    return assemble_trace_artifact(params, payloads)
