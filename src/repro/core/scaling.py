"""Core-count scaling under a memory-traffic budget (Section 5).

Given a balanced baseline CMP, a die grown by some technology-scaling
factor, a traffic budget ``B`` (how much the bandwidth envelope grows),
and optionally a stack of bandwidth-conservation techniques, the solver
answers the paper's central question: *how many cores can the new chip
support without exceeding the traffic budget?*

The governing equation generalises Equation 7 to all techniques:

.. math::
   \\frac{P_2}{P_1} \\cdot
   \\left(\\frac{S^{\\mathrm{eff}}_2(P_2)}{S_1}\\right)^{-\\alpha}
   = B \\cdot t

where ``t`` is the technique stack's direct traffic factor and
``S_eff`` folds in effective-capacity multipliers, DRAM density, 3D
layers and core-size changes (see
:meth:`repro.core.techniques.TechniqueEffect.effective_cache_ceas`).
The left side is strictly increasing in ``P2``, so a bisection solve is
exact for practical purposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .area import ChipDesign
from .solver import BracketError, floor_cores, solve_increasing
from .techniques import NEUTRAL_EFFECT, TechniqueEffect

__all__ = [
    "ScalingSolution",
    "BandwidthWallModel",
    "GenerationPoint",
    "PAPER_GENERATION_FACTORS",
]

#: The four future technology generations the paper evaluates
#: (2x, 4x, 8x, 16x the baseline transistor budget).
PAPER_GENERATION_FACTORS = (2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class ScalingSolution:
    """The outcome of one supportable-core-count solve.

    Attributes
    ----------
    continuous_cores:
        The exact (real-valued) solution ``P2`` of the traffic equation.
    cores:
        ``floor(continuous_cores)`` — the buildable integer count the
        paper reports.
    design:
        The resulting die split, with the continuous core count.
    effective_cache_per_core:
        ``S2_eff`` in SRAM-equivalent CEAs at the continuous solution.
    traffic_budget:
        The budget (relative to baseline traffic) the solve targeted,
        *excluding* technique traffic factors.
    area_limited:
        True when the traffic budget permits more cores than physically
        fit on the die, so the result is capped by area rather than by
        bandwidth (possible with 3D stacks and very small cores).
    """

    continuous_cores: float
    design: ChipDesign
    effective_cache_per_core: float
    traffic_budget: float
    area_limited: bool = False

    @property
    def cores(self) -> int:
        return floor_cores(self.continuous_cores)

    @property
    def core_area_share(self) -> float:
        """Fraction of the (processor) die occupied by cores."""
        return self.design.core_area_share


@dataclass(frozen=True)
class BandwidthWallModel:
    """The paper's analytical model, bound to a baseline CMP and workload.

    Parameters
    ----------
    baseline:
        The balanced current-generation design (the paper uses a
        Niagara2-like 8-core / 8-cache-CEA, 16-CEA chip).
    alpha:
        Workload cache sensitivity (0.5 for the average commercial
        workload).

    Examples
    --------
    >>> from repro.core.area import ChipDesign
    >>> model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
    >>> model.supportable_cores(32).cores        # Figure 2's crossing
    11
    >>> model.supportable_cores(256).cores       # four generations out
    24
    """

    baseline: ChipDesign
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.baseline.cache_per_core <= 0:
            raise ValueError("baseline design must include cache")

    # ------------------------------------------------------------------
    # Traffic as a function of a candidate configuration
    # ------------------------------------------------------------------

    def relative_traffic(
        self,
        total_ceas: float,
        cores: float,
        effect: TechniqueEffect = NEUTRAL_EFFECT,
    ) -> float:
        """``M2 / M1`` for ``cores`` on a ``total_ceas`` die with ``effect``.

        The technique's *direct* traffic factor divides the generated
        traffic (compressed bytes cross the link), so it appears here as
        a division; the capacity/density/stacking terms enter through the
        effective cache per core.
        """
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        return self.traffic_curve(total_ceas, effect)(cores)

    def traffic_curve(
        self,
        total_ceas: float,
        effect: TechniqueEffect = NEUTRAL_EFFECT,
    ) -> Callable[[float], float]:
        """``cores -> relative_traffic(total_ceas, cores, effect)``, with
        the terms that do not depend on ``cores`` read once for the ~50
        evaluations of a bisection.  Operation for operation the
        arithmetic of :meth:`TechniqueEffect.effective_cache_ceas` and
        Equation 5, so every value rounds the same; ``cores`` > 0.
        """
        f = effect.core_area_fraction
        d = effect.on_die_density
        stacked = (effect.stacked_layers * effect.resolved_stacked_density
                   * total_ceas)
        cf = effect.capacity_factor
        tf = effect.traffic_factor
        p1 = self.baseline.num_cores
        s1 = self.baseline.cache_per_core
        neg_alpha = -self.alpha

        def traffic(cores: float) -> float:
            die_cache = total_ceas - f * cores
            if die_cache < 0:
                raise ValueError(
                    f"{cores} cores of size {f} CEA do not fit on a "
                    f"{total_ceas}-CEA die"
                )
            s2 = cf * (d * die_cache + stacked) / cores
            if s2 <= 0:
                return math.inf
            return (cores / p1) * (s2 / s1) ** neg_alpha / tf

        return traffic

    # ------------------------------------------------------------------
    # The central solve
    # ------------------------------------------------------------------

    def supportable_cores(
        self,
        total_ceas: float,
        *,
        traffic_budget: float = 1.0,
        effect: TechniqueEffect = NEUTRAL_EFFECT,
    ) -> ScalingSolution:
        """Solve for the largest core count within the traffic budget.

        Parameters
        ----------
        total_ceas:
            ``N2`` — the die size of the target generation, in CEAs.
        traffic_budget:
            ``B`` — allowed growth of total memory traffic relative to
            the baseline chip (1.0 keeps traffic constant).
        effect:
            Combined effect of any bandwidth-conservation techniques.
        """
        from . import vectorized

        if vectorized.mode() == "force":
            # The differential test mode: even single solves run through
            # the batch kernel, proving it byte-identical on every code
            # path that reaches supportable_cores.
            return vectorized.solve_batch(
                self, [(total_ceas, traffic_budget, effect)]
            )[0]
        return self.solve_point(total_ceas, traffic_budget, effect)

    def supportable_cores_batch(
        self,
        queries: Sequence[Tuple[float, float, TechniqueEffect]],
    ) -> List[ScalingSolution]:
        """Solve many ``(total_ceas, traffic_budget, effect)`` queries.

        Semantically identical — bit-for-bit, including exceptions — to
        calling :meth:`supportable_cores` once per query in order, but
        solved together through the vectorized batch kernel
        (:mod:`repro.core.vectorized`) when the batch is large enough
        to pay for it.  The sweep engine, the service's ``/v1/sweep``
        and the jobs executor all funnel their grids through here.
        """
        from . import vectorized

        queries = list(queries)
        for total_ceas, traffic_budget, _ in queries:
            self.validate_query(total_ceas, traffic_budget)
        if vectorized.use_batch(len(queries)):
            return vectorized.solve_batch(self, queries)
        return [self.solve_point(*query) for query in queries]

    # -- solve internals (shared with repro.core.vectorized) -----------

    def validate_query(self, total_ceas: float, traffic_budget: float) -> None:
        """Reject malformed solve inputs with the canonical messages."""
        if total_ceas <= 0:
            raise ValueError(f"total_ceas must be positive, got {total_ceas}")
        if traffic_budget <= 0:
            raise ValueError(
                f"traffic_budget must be positive, got {traffic_budget}"
            )

    def solve_point(
        self,
        total_ceas: float,
        traffic_budget: float,
        effect: TechniqueEffect = NEUTRAL_EFFECT,
    ) -> ScalingSolution:
        """One bisection solve, bypassing batch dispatch.

        The scalar reference path: the vectorized kernel replays its
        arithmetic and delegates its own guard failures here.
        """
        self.validate_query(total_ceas, traffic_budget)
        max_cores = total_ceas / effect.core_area_fraction
        traffic = self.traffic_curve(total_ceas, effect)
        try:
            p2 = solve_increasing(traffic, traffic_budget, 0.0, max_cores)
            area_limited = False
        except BracketError:
            # Traffic at full-die core allocation is still inside budget:
            # the design is limited by area, not bandwidth.  (The opposite
            # failure — traffic over budget even for one core — cannot
            # happen for budgets >= the single-core traffic, and for
            # pathological tiny budgets we surface it.)
            if traffic(max_cores * (1 - 1e-12)) < traffic_budget:
                p2 = max_cores
                area_limited = True
            else:
                raise
        return self.finish_solution(
            total_ceas, traffic_budget, effect, p2, area_limited
        )

    def finish_solution(
        self,
        total_ceas: float,
        traffic_budget: float,
        effect: TechniqueEffect,
        p2: float,
        area_limited: bool,
    ) -> ScalingSolution:
        """Package a solved core count into a :class:`ScalingSolution`.

        Single-sourced so batch-solved roots produce solutions whose
        derived fields round exactly as scalar-solved ones.
        """
        design = ChipDesign(
            total_ceas=total_ceas,
            core_ceas=p2,
            core_area_fraction=effect.core_area_fraction,
        )
        s_eff = effect.effective_cache_ceas(total_ceas, p2) / p2
        return ScalingSolution(
            continuous_cores=p2,
            design=design,
            effective_cache_per_core=s_eff,
            traffic_budget=traffic_budget,
            area_limited=area_limited,
        )

    # ------------------------------------------------------------------
    # Multi-generation studies (Figures 3, 15, 16, 17)
    # ------------------------------------------------------------------

    def generation_study(
        self,
        *,
        scaling_factors: Sequence[float] = PAPER_GENERATION_FACTORS,
        effect: TechniqueEffect = NEUTRAL_EFFECT,
        bandwidth_growth_per_generation: float = 1.0,
    ) -> List["GenerationPoint"]:
        """Supportable cores for each future generation.

        ``bandwidth_growth_per_generation`` compounds: a value ``g``
        allows traffic ``g**k`` at the generation whose area factor is
        ``2**k``.  The paper's constant-traffic studies use ``g = 1``.
        """
        points = []
        for factor in scaling_factors:
            generations = math.log2(factor)
            budget = bandwidth_growth_per_generation**generations
            solution = self.supportable_cores(
                self.baseline.total_ceas * factor,
                traffic_budget=budget,
                effect=effect,
            )
            ideal = self.baseline.num_cores * factor
            points.append(
                GenerationPoint(
                    area_factor=factor,
                    solution=solution,
                    ideal_cores=ideal,
                )
            )
        return points

    def with_alpha(self, alpha: float) -> "BandwidthWallModel":
        """Return a copy of this model for a different workload alpha."""
        return BandwidthWallModel(baseline=self.baseline, alpha=alpha)


@dataclass(frozen=True)
class GenerationPoint:
    """One generation's outcome in a multi-generation study."""

    area_factor: float
    solution: ScalingSolution
    ideal_cores: float

    @property
    def cores(self) -> int:
        return self.solution.cores

    @property
    def shortfall(self) -> float:
        """Ideal minus achieved cores (the "growing gap" of Figure 15)."""
        return self.ideal_cores - self.solution.continuous_cores

    @property
    def is_super_proportional(self) -> bool:
        """True when the technique beats proportional scaling."""
        return self.solution.continuous_cores > self.ideal_cores

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return (
            f"{self.area_factor:>4.0f}x: {self.cores:>4d} cores "
            f"(ideal {self.ideal_cores:.0f})"
        )
