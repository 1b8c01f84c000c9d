"""Shared machinery for the single-technique figures (4-12).

Each of those figures sweeps one technique parameter and reports the
number of supportable cores on the next-generation 32-CEA die under
constant traffic, annotating the paper's pessimistic / realistic /
optimistic assumption points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..analysis.series import FigureData, Series
from ..core.techniques import Technique
from .common import NEXT_GEN_CEAS, baseline_model
from .engine import GridPoint, sweep_grid

__all__ = ["TechniqueSweepResult", "sweep_technique"]


@dataclass(frozen=True)
class TechniqueSweepResult:
    """Outcome of one technique-parameter sweep."""

    figure: FigureData
    #: parameter value -> supportable cores
    cores_by_parameter: Dict[float, int]
    baseline_cores: int
    #: cores at the Table 2 assumption levels
    pessimistic_cores: int
    realistic_cores: int
    optimistic_cores: int


def sweep_technique(
    figure_id: str,
    title: str,
    x_label: str,
    make_technique: Callable[[float], Technique],
    parameter_values: Sequence[float],
    technique_type: type,
    *,
    total_ceas: float = NEXT_GEN_CEAS,
    alpha: float = 0.5,
    baseline_label: str = "No technique",
    notes: str = "",
) -> TechniqueSweepResult:
    """Run the sweep and package it as FigureData + checkpoints.

    The whole grid — baseline point, one point per parameter value, and
    the three Table 2 assumption levels — is evaluated in one ordered
    pass through the engine's grid layer.
    """
    model = baseline_model(alpha)
    grid = [GridPoint(total_ceas)]
    grid += [
        GridPoint(total_ceas, effect=make_technique(value).effect())
        for value in parameter_values
    ]
    grid += [
        GridPoint(total_ceas, effect=technique_type.pessimistic().effect()),
        GridPoint(total_ceas, effect=technique_type.realistic().effect()),
        GridPoint(total_ceas, effect=technique_type.optimistic().effect()),
    ]
    solutions = sweep_grid(model, grid)

    base_cores = solutions[0].cores
    cores_by_parameter: Dict[float, int] = {
        value: solution.cores
        for value, solution in zip(parameter_values,
                                   solutions[1:1 + len(parameter_values)])
    }
    pessimistic, realistic, optimistic = (
        solution.cores for solution in solutions[-3:]
    )

    figure = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label=f"number of CMP cores ({total_ceas:.0f} CEAs)",
        notes=notes,
    )
    figure.add(Series.from_xy(
        "supportable cores",
        list(cores_by_parameter),
        list(cores_by_parameter.values()),
    ))
    figure.add(Series(baseline_label, ((0.0, float(base_cores)),)))

    return TechniqueSweepResult(
        figure=figure,
        cores_by_parameter=cores_by_parameter,
        baseline_cores=base_cores,
        pessimistic_cores=pessimistic,
        realistic_cores=realistic,
        optimistic_cores=optimistic,
    )


def print_sweep(result: TechniqueSweepResult,
                paper_note: str = "") -> None:  # pragma: no cover
    """CLI rendering shared by the figure mains."""
    from ..analysis.tables import ascii_bars

    labels = ["baseline"] + [f"{v:g}" for v in result.cores_by_parameter]
    values = [float(result.baseline_cores)] + [
        float(c) for c in result.cores_by_parameter.values()
    ]
    print(ascii_bars(labels, values, unit=" cores"))
    print(
        f"\npessimistic / realistic / optimistic: "
        f"{result.pessimistic_cores} / {result.realistic_cores} / "
        f"{result.optimistic_cores}"
    )
    if paper_note:
        print(paper_note)
