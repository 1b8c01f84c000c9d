"""Extension experiment: how far can the model be trusted?

A fidelity report for the analytical model itself: fit the power law on
small caches and predict held-out larger ones, for every commercial
preset (where the law should hold) and every SPEC-like preset (where
plateaus should break it).  The output is the quantitative version of
Section 4.1's "tend to conform ... quite closely" / "fit less well".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..analysis.series import FigureData, Series
from ..analysis.validation import ValidationReport, validate_traffic_prediction
from ..workloads.commercial import COMMERCIAL_WORKLOADS
from ..workloads.spec2006 import SPEC2006_WORKLOADS, spec2006_generator

__all__ = [
    "ExtValidationResult",
    "run",
    "shard_keys",
    "run_shard",
    "merge_shards",
    "render",
]


@dataclass(frozen=True)
class ExtValidationResult:
    figure: FigureData
    #: workload name -> held-out prediction reports
    reports: Dict[str, List[ValidationReport]]

    def worst_error(self, name: str) -> float:
        return max(r.relative_error for r in self.reports[name])

    @property
    def commercial_worst(self) -> float:
        return max(
            self.worst_error(spec.name) for spec in COMMERCIAL_WORKLOADS
        )

    @property
    def spec_worst(self) -> float:
        return max(
            self.worst_error(name) for name, _, _ in SPEC2006_WORKLOADS
        )


_COMMERCIAL_PREFIX = "commercial:"
_SPEC_PREFIX = "spec2006:"


def shard_keys() -> Tuple[str, ...]:
    """One independent validation shard per workload preset."""
    return tuple(
        f"{_COMMERCIAL_PREFIX}{spec.name}" for spec in COMMERCIAL_WORKLOADS
    ) + tuple(f"{_SPEC_PREFIX}{name}" for name, _, _ in SPEC2006_WORKLOADS)


def run_shard(
    key: str,
    accesses: int = 60_000,
    working_set_lines: int = 1 << 13,
) -> List[ValidationReport]:
    """Validate one workload preset (one shard of :func:`run`)."""
    if key.startswith(_COMMERCIAL_PREFIX):
        name = key[len(_COMMERCIAL_PREFIX):]
        for spec in COMMERCIAL_WORKLOADS:
            if spec.name == name:
                def factory(s=spec):
                    return s.generator(
                        working_set_lines=working_set_lines
                    ).columns(accesses)

                def warmup(s=spec):
                    return s.generator(
                        working_set_lines=working_set_lines
                    ).warmup_columns()

                return validate_traffic_prediction(
                    factory, warmup_factory=warmup
                )
    elif key.startswith(_SPEC_PREFIX):
        name = key[len(_SPEC_PREFIX):]
        if any(name == n for n, _, _ in SPEC2006_WORKLOADS):
            def factory(n=name):
                return spec2006_generator(n, seed=2).columns(accesses)

            return validate_traffic_prediction(
                factory,
                holdout_line_counts=(1024, 4096),
            )
    raise KeyError(
        f"unknown Ext-Validation shard {key!r}; valid: {shard_keys()}"
    )


def merge_shards(
    shard_reports: Mapping[str, List[ValidationReport]],
) -> ExtValidationResult:
    """Assemble the per-workload reports into the figure + result."""
    reports: Dict[str, List[ValidationReport]] = {}
    for spec in COMMERCIAL_WORKLOADS:
        reports[spec.name] = shard_reports[f"{_COMMERCIAL_PREFIX}{spec.name}"]
    for name, _, _ in SPEC2006_WORKLOADS:
        reports[name] = shard_reports[f"{_SPEC_PREFIX}{name}"]

    figure = FigureData(
        figure_id="Ext-Validation",
        title="Power-law extrapolation error per workload",
        x_label="workload index",
        y_label="worst relative error on held-out sizes",
        notes="commercial presets extrapolate well; discrete-working-set "
              "apps break the law at their cliffs (Section 4.1)",
    )
    names = list(reports)
    figure.add(Series(
        "worst holdout error",
        tuple(
            (float(i), max(r.relative_error for r in reports[name]))
            for i, name in enumerate(names)
        ),
    ))
    return ExtValidationResult(figure=figure, reports=reports)


def run(
    accesses: int = 60_000,
    working_set_lines: int = 1 << 13,
) -> ExtValidationResult:
    """Predict held-out miss rates for every workload preset.

    Serial execution uses the same shard/merge code the parallel engine
    fans out, so both modes produce bit-identical results.
    """
    return merge_shards({
        key: run_shard(key, accesses, working_set_lines)
        for key in shard_keys()
    })


def render(result: ExtValidationResult) -> None:
    """Print the paper-style report for an already-computed result."""
    from ..analysis.tables import format_table

    rows = [
        [name, f"{max(r.relative_error for r in reports):.1%}"]
        for name, reports in result.reports.items()
    ]
    print(format_table(["workload", "worst holdout error"], rows))
    print(f"\ncommercial worst: {result.commercial_worst:.1%}; "
          f"SPEC-like worst: {result.spec_worst:.1%} — the law holds "
          "where the paper says it holds.")


def main() -> None:  # pragma: no cover
    render(run())


if __name__ == "__main__":  # pragma: no cover
    main()
