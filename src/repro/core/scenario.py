"""Custom scaling scenarios: one shared solve/render path for CLI and API.

A *scenario* is the paper's central what-if question asked for arbitrary
inputs: given a die size, a workload alpha, a traffic budget and a stack
of bandwidth-conservation techniques, how many cores does the design
support?  The CLI's ``solve`` command and the serving subsystem
(:mod:`repro.service`) both answer it through this module, so a solve
over HTTP is byte-identical to the same solve on a terminal: the
rendered text comes from :func:`render_scenario` in both cases, and the
numbers come from one :func:`solve_scenario` call.

Technique specs use the CLI's ``LABEL[=VALUE]`` grammar (``DRAM=8``,
``CC/LC=2``, bare ``3D`` for the default parameter); see
:data:`TECHNIQUE_SPEC_PARSERS` for the labels and their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .presets import paper_baseline_design
from .scaling import BandwidthWallModel, ScalingSolution
from .techniques import (
    CacheCompression,
    CacheLinkCompression,
    DRAMCache,
    LinkCompression,
    NEUTRAL_EFFECT,
    SectoredCache,
    SmallCacheLines,
    SmallerCores,
    Technique,
    TechniqueEffect,
    ThreeDStackedCache,
    UnusedDataFiltering,
)

__all__ = [
    "TECHNIQUE_SPEC_PARSERS",
    "parse_technique_spec",
    "ScenarioRequest",
    "ScenarioOutcome",
    "solve_scenario",
    "render_scenario",
    "scenario_payload",
]

#: label -> constructor taking the optional ``LABEL=value`` parameter.
TECHNIQUE_SPEC_PARSERS = {
    "CC": lambda value: CacheCompression(float(value or 2.0)),
    "DRAM": lambda value: DRAMCache(float(value or 8.0)),
    "3D": lambda value: ThreeDStackedCache(float(value or 1.0)),
    "Fltr": lambda value: UnusedDataFiltering(float(value or 0.4)),
    "SmCo": lambda value: SmallerCores(1.0 / float(value or 40.0)),
    "LC": lambda value: LinkCompression(float(value or 2.0)),
    "Sect": lambda value: SectoredCache(float(value or 0.4)),
    "SmCl": lambda value: SmallCacheLines(float(value or 0.4)),
    "CC/LC": lambda value: CacheLinkCompression(float(value or 2.0)),
}


def parse_technique_spec(spec: str) -> Technique:
    """Parse ``LABEL`` or ``LABEL=value`` into a Technique.

    Raises :class:`ValueError` with a message that names the offending
    label, so both the CLI and the API surface the same diagnostics.
    """
    label, _, value = spec.partition("=")
    label = label.strip()
    if label not in TECHNIQUE_SPEC_PARSERS:
        raise ValueError(
            f"unknown technique {label!r}; choose from "
            f"{sorted(TECHNIQUE_SPEC_PARSERS)}"
        )
    try:
        return TECHNIQUE_SPEC_PARSERS[label](value.strip() or None)
    except ValueError as error:
        raise ValueError(f"bad parameter for {label}: {error}") from None


@dataclass(frozen=True)
class ScenarioRequest:
    """One custom scaling question, in CLI-flag terms."""

    ceas: float = 32.0
    alpha: float = 0.5
    budget: float = 1.0
    techniques: Tuple[str, ...] = ()

    def combined_effect(self) -> Tuple[TechniqueEffect, Tuple[str, ...]]:
        """Fold the technique specs into one effect plus their labels."""
        effect = NEUTRAL_EFFECT
        labels: List[str] = []
        for spec in self.techniques:
            technique = parse_technique_spec(spec)
            effect = effect.combine(technique.effect())
            labels.append(technique.label)
        return effect, tuple(labels)


@dataclass(frozen=True)
class ScenarioOutcome:
    """A solved scenario: the request, its solution and the comparison."""

    request: ScenarioRequest
    labels: Tuple[str, ...]
    solution: ScalingSolution
    proportional_cores: float

    @property
    def verdict(self) -> str:
        """Paper-style comparison against proportional core scaling."""
        return ("super-proportional"
                if self.solution.continuous_cores > self.proportional_cores
                else "sub-proportional")


def solve_scenario(request: ScenarioRequest) -> ScenarioOutcome:
    """Solve one scenario through the bandwidth-wall model.

    Raises :class:`ValueError` on bad technique specs, structural
    technique conflicts, or out-of-range alpha/ceas/budget — the same
    exceptions, with the same messages, whichever frontend asked.
    """
    effect, labels = request.combined_effect()
    baseline = paper_baseline_design()
    model = BandwidthWallModel(baseline, alpha=request.alpha)
    solution = model.supportable_cores(
        request.ceas, traffic_budget=request.budget, effect=effect
    )
    proportional = (baseline.num_cores * request.ceas
                    / baseline.total_ceas)
    return ScenarioOutcome(
        request=request,
        labels=labels,
        solution=solution,
        proportional_cores=proportional,
    )


def render_scenario(outcome: ScenarioOutcome) -> str:
    """The CLI ``solve`` report for one outcome (trailing newline kept).

    This is the single source of the human-readable form; the API's
    ``text`` field and the CLI's stdout are this exact string.
    """
    request, solution = outcome.request, outcome.solution
    stack_label = " + ".join(outcome.labels) if outcome.labels else "none"
    lines = [
        f"baseline      : 8 cores + 8 cache CEAs, alpha={request.alpha}",
        f"die           : {request.ceas:g} CEAs, traffic budget "
        f"{request.budget:g}x",
        f"techniques    : {stack_label}",
        f"cores         : {solution.cores} "
        f"(continuous {solution.continuous_cores:.2f})",
        f"core area     : {solution.core_area_share:.1%} of die",
        f"cache/core    : {solution.effective_cache_per_core:.2f} "
        "SRAM-equivalent CEAs",
    ]
    if solution.area_limited:
        lines.append(
            "note          : area limited — the traffic budget would "
            "admit more cores than fit"
        )
    lines.append(
        f"vs proportional ({outcome.proportional_cores:g} cores): "
        f"{outcome.verdict}"
    )
    return "\n".join(lines) + "\n"


def scenario_payload(outcome: ScenarioOutcome) -> dict:
    """JSON-ready structured form of one outcome (the API response body)."""
    request, solution = outcome.request, outcome.solution
    return {
        "request": {
            "ceas": request.ceas,
            "alpha": request.alpha,
            "budget": request.budget,
            "techniques": list(request.techniques),
        },
        "techniques": list(outcome.labels),
        "solution": {
            "cores": solution.cores,
            "continuous_cores": solution.continuous_cores,
            "core_area_share": solution.core_area_share,
            "effective_cache_per_core": solution.effective_cache_per_core,
            "traffic_budget": solution.traffic_budget,
            "area_limited": solution.area_limited,
        },
        "proportional_cores": outcome.proportional_cores,
        "verdict": outcome.verdict,
        "text": render_scenario(outcome),
    }
