"""Figure 1 — normalized cache miss rate as a function of cache size.

The paper plots, on log-log axes, per-application miss curves normalized
to the smallest cache size, with power-law fits: commercial average
alpha ~= 0.48, extremes 0.36 (OLTP-2) and 0.62 (OLTP-4), SPEC 2006
average ~= 0.25.

Our version generates each commercial preset's synthetic stream, runs it
through the stack-distance profiler (exact fully-associative LRU miss
rates at every size in one pass), normalizes, and fits.  SPEC 2006 is
the average of eight discrete-working-set apps, individually poor fits
whose average fits well — reproducing the paper's observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..analysis.calibration import measure_miss_curve
from ..analysis.fitting import PowerLawFit, fit_miss_curve
from ..analysis.series import FigureData, Series
from ..workloads.commercial import COMMERCIAL_WORKLOADS
from ..workloads.spec2006 import SPEC2006_WORKLOADS, spec2006_generator
from ..workloads.stack_distance import MissCurve

__all__ = [
    "Figure1Result",
    "run",
    "shard_keys",
    "run_shard",
    "merge_shards",
    "render",
]

#: Cache sizes measured, in lines (64B lines: 1 KB ... 512 KB region
#: where every synthetic workload is still in its power-law regime).
DEFAULT_LINE_COUNTS: Tuple[int, ...] = tuple(2**k for k in range(4, 14))

#: Fit range: stay below the synthetic working sets' cold floors.
FIT_MAX_LINES = 2048


@dataclass(frozen=True)
class Figure1Result:
    """Everything Figure 1 shows, as data."""

    figure: FigureData
    fits: Dict[str, PowerLawFit]
    commercial_average_alpha: float
    commercial_min_alpha: float
    commercial_max_alpha: float
    spec2006_alpha: float


def _average_curve(curves: List[MissCurve]) -> MissCurve:
    sizes = curves[0].line_counts
    for curve in curves:
        if curve.line_counts != sizes:
            raise ValueError("curves must share cache sizes to average")
    rates = tuple(
        sum(c.miss_rates[i] for c in curves) / len(curves)
        for i in range(len(sizes))
    )
    return MissCurve(sizes, rates)


#: Shard-key prefixes (see :func:`shard_keys`).
_COMMERCIAL_PREFIX = "commercial:"
_SPEC_PREFIX = "spec2006:"


def shard_keys() -> Tuple[str, ...]:
    """Independent units of Figure 1 work, one per measured workload.

    Each shard is one stack-distance measurement — the expensive part —
    and the shards are mutually independent, so the sweep engine can fan
    them out across worker processes.  Order is deterministic.
    """
    return tuple(
        f"{_COMMERCIAL_PREFIX}{spec.name}" for spec in COMMERCIAL_WORKLOADS
    ) + tuple(f"{_SPEC_PREFIX}{name}" for name, _, _ in SPEC2006_WORKLOADS)


def run_shard(
    key: str,
    accesses: int = 150_000,
    line_counts: Sequence[int] = DEFAULT_LINE_COUNTS,
    working_set_lines: int = 1 << 14,
) -> MissCurve:
    """Measure one workload's miss curve (one shard of :func:`run`)."""
    if key.startswith(_COMMERCIAL_PREFIX):
        name = key[len(_COMMERCIAL_PREFIX):]
        for spec in COMMERCIAL_WORKLOADS:
            if spec.name == name:
                generator = spec.generator(
                    working_set_lines=working_set_lines
                )
                return measure_miss_curve(
                    generator.columns(accesses),
                    line_counts,
                    warmup_stream=generator.warmup_columns(),
                )
    elif key.startswith(_SPEC_PREFIX):
        name = key[len(_SPEC_PREFIX):]
        if any(name == n for n, _, _ in SPEC2006_WORKLOADS):
            generator = spec2006_generator(name, seed=11)
            return measure_miss_curve(generator.columns(accesses),
                                      line_counts)
    raise KeyError(f"unknown Figure 1 shard {key!r}; valid: {shard_keys()}")


def merge_shards(curves: Mapping[str, MissCurve]) -> Figure1Result:
    """Assemble the figure, fits and averages from the per-shard curves.

    The merge iterates the workload tables (not the mapping) so series
    and fit order is identical however the shards were computed.
    """
    figure = FigureData(
        figure_id="Figure 1",
        title="Normalized cache miss rate as a function of cache size",
        x_label="cache size (64B lines)",
        y_label="miss rate normalized to smallest size",
        notes=(
            "log-log straight lines = power law; commercial fits span "
            "alpha 0.36-0.62, SPEC 2006 average is shallow (~0.25)"
        ),
    )
    fits: Dict[str, PowerLawFit] = {}

    commercial_curves: List[MissCurve] = []
    for spec in COMMERCIAL_WORKLOADS:
        curve = curves[f"{_COMMERCIAL_PREFIX}{spec.name}"]
        commercial_curves.append(curve)
        normalized = curve.normalized()
        figure.add(Series.from_xy(spec.name, normalized.line_counts,
                                  normalized.miss_rates))
        fits[spec.name] = fit_miss_curve(curve, max_lines=FIT_MAX_LINES)

    commercial_avg = _average_curve(commercial_curves)
    avg_norm = commercial_avg.normalized()
    figure.add(Series.from_xy("Commercial (AVG)", avg_norm.line_counts,
                              avg_norm.miss_rates))
    fits["Commercial (AVG)"] = fit_miss_curve(
        commercial_avg, max_lines=FIT_MAX_LINES
    )

    spec_curves: List[MissCurve] = []
    for name, _, _ in SPEC2006_WORKLOADS:
        curve = curves[f"{_SPEC_PREFIX}{name}"]
        spec_curves.append(curve)
        fits[name] = fit_miss_curve(curve, max_lines=FIT_MAX_LINES)
    spec_avg = _average_curve(spec_curves)
    spec_norm = spec_avg.normalized()
    figure.add(Series.from_xy("SPEC 2006 (AVG)", spec_norm.line_counts,
                              spec_norm.miss_rates))
    fits["SPEC 2006 (AVG)"] = fit_miss_curve(spec_avg, max_lines=FIT_MAX_LINES)

    per_app = [fits[s.name].alpha for s in COMMERCIAL_WORKLOADS]
    return Figure1Result(
        figure=figure,
        fits=fits,
        commercial_average_alpha=fits["Commercial (AVG)"].alpha,
        commercial_min_alpha=min(per_app),
        commercial_max_alpha=max(per_app),
        spec2006_alpha=fits["SPEC 2006 (AVG)"].alpha,
    )


def run(
    accesses: int = 150_000,
    line_counts: Sequence[int] = DEFAULT_LINE_COUNTS,
    working_set_lines: int = 1 << 14,
) -> Figure1Result:
    """Measure and fit every Figure 1 curve.

    ``accesses`` and ``working_set_lines`` trade fidelity for runtime;
    the defaults keep the full figure under a minute.  Serial execution
    goes through the same shard/merge code the parallel engine uses, so
    both modes produce bit-identical results.
    """
    curves = {
        key: run_shard(key, accesses, line_counts, working_set_lines)
        for key in shard_keys()
    }
    return merge_shards(curves)


def render(result: Figure1Result) -> None:
    """Print the paper-style report for an already-computed result."""
    from ..analysis.tables import format_table

    rows = [
        [name, f"{fit.alpha:.3f}", f"{fit.r_squared:.3f}"]
        for name, fit in sorted(result.fits.items())
    ]
    print(format_table(["workload", "fitted alpha", "R^2"], rows))
    print(
        f"\ncommercial avg alpha = {result.commercial_average_alpha:.3f} "
        f"(paper: 0.48); min = {result.commercial_min_alpha:.3f} (0.36); "
        f"max = {result.commercial_max_alpha:.3f} (0.62); "
        f"SPEC2006 avg = {result.spec2006_alpha:.3f} (0.25)"
    )


def main() -> None:  # pragma: no cover - CLI convenience
    render(run())


if __name__ == "__main__":  # pragma: no cover
    main()
