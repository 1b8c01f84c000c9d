"""Property-based tests for the root solver and the scaling model.

Requires the ``hypothesis`` test extra; the module skips cleanly when
it is absent so the tier-1 suite never gains a hard dependency.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.core.area import ChipDesign
from repro.core.scaling import BandwidthWallModel
from repro.core.solver import BracketError, solve_increasing

#: Solves are microseconds; generous example counts are
#: cheap.  deadline=None guards against scheduler noise on slow CI.
COMMON_SETTINGS = settings(deadline=None, max_examples=100)

positive = st.floats(min_value=0.01, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


def make_increasing(a, b, c):
    """A strictly increasing function with varied curvature."""
    def func(x):
        return a * x + b * x**3 + c * math.atan(x)
    return func


class TestSolveIncreasing:
    @COMMON_SETTINGS
    @given(a=positive, b=positive, c=positive,
           lo=st.floats(min_value=-50.0, max_value=49.0,
                        allow_nan=False),
           span=st.floats(min_value=0.5, max_value=100.0,
                          allow_nan=False),
           fraction=st.floats(min_value=0.01, max_value=0.99))
    def test_recovers_root_within_tol(self, a, b, c, lo, span, fraction):
        """For random increasing functions, the returned root is the
        (unique) preimage of the target, within the x tolerance."""
        func = make_increasing(a, b, c)
        hi = lo + span
        x_star = lo + fraction * span
        target = func(x_star)
        assume(math.isfinite(target))
        root = solve_increasing(func, target, lo, hi, tol=1e-12)
        assert abs(root - x_star) < 1e-6 * max(1.0, abs(x_star))

    @COMMON_SETTINGS
    @given(a=positive, b=positive, c=positive,
           lo=st.floats(min_value=-10.0, max_value=10.0,
                        allow_nan=False),
           span=st.floats(min_value=0.5, max_value=20.0,
                          allow_nan=False),
           excess=st.floats(min_value=0.1, max_value=100.0))
    def test_raises_outside_bracket(self, a, b, c, lo, span, excess):
        """Targets beyond either endpoint raise BracketError."""
        func = make_increasing(a, b, c)
        hi = lo + span
        above = func(hi) + excess
        below = func(lo) - excess
        with pytest.raises(BracketError):
            solve_increasing(func, above, lo, hi)
        with pytest.raises(BracketError):
            solve_increasing(func, below, lo, hi)

    def test_rejects_bad_interval_and_target(self):
        func = make_increasing(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_increasing(func, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            solve_increasing(func, math.inf, 0.0, 1.0)


#: The paper's parameter ranges, a little widened.
alphas = st.floats(min_value=0.1, max_value=1.5)
budgets = st.floats(min_value=0.3, max_value=6.0)
dies = st.floats(min_value=17.0, max_value=512.0)

BASELINE = ChipDesign(total_ceas=16, core_ceas=8)
EPS = 1e-7


class TestModelMonotonicity:
    @COMMON_SETTINGS
    @given(alpha=alphas, die=dies, b1=budgets, b2=budgets)
    def test_cores_non_decreasing_in_budget(self, alpha, die, b1, b2):
        """A looser traffic budget never supports fewer cores."""
        lo, hi = sorted((b1, b2))
        model = BandwidthWallModel(BASELINE, alpha=alpha)
        cores_lo = model.supportable_cores(die, traffic_budget=lo)
        cores_hi = model.supportable_cores(die, traffic_budget=hi)
        assert cores_hi.continuous_cores >= cores_lo.continuous_cores - EPS
        assert cores_hi.cores >= cores_lo.cores

    @COMMON_SETTINGS
    @given(alpha=alphas, budget=budgets, n1=dies, n2=dies)
    def test_cores_non_decreasing_in_die_ceas(self, alpha, budget, n1, n2):
        """A bigger die (more cache headroom) never supports fewer
        cores under the same budget."""
        lo, hi = sorted((n1, n2))
        model = BandwidthWallModel(BASELINE, alpha=alpha)
        cores_lo = model.supportable_cores(lo, traffic_budget=budget)
        cores_hi = model.supportable_cores(hi, traffic_budget=budget)
        assert cores_hi.continuous_cores >= cores_lo.continuous_cores - EPS

    @COMMON_SETTINGS
    @given(die=dies, budget=budgets, a1=alphas, a2=alphas)
    def test_alpha_direction_flips_at_cache_parity(self, die, budget,
                                                   a1, a2):
        """Cache sensitivity helps iff cores end up cache-richer than
        the baseline.

        Traffic per core scales as ``(S2/S1) ** -alpha``: when the
        solution has more effective cache per core than the baseline
        (``S2 > S1``), raising alpha *cuts* traffic, so supportable
        cores are non-decreasing in alpha; once the die is so crowded
        that ``S2 < S1``, the sign flips and cores are non-increasing.
        (The ISSUE's blanket "non-increasing in alpha" only holds in
        that second, cache-starved regime.)
        """
        lo, hi = sorted((a1, a2))
        assume(hi - lo > 1e-6)
        solution_lo = BandwidthWallModel(BASELINE, alpha=lo) \
            .supportable_cores(die, traffic_budget=budget)
        solution_hi = BandwidthWallModel(BASELINE, alpha=hi) \
            .supportable_cores(die, traffic_budget=budget)
        s1 = BASELINE.cache_per_core
        s_lo = solution_lo.effective_cache_per_core
        s_hi = solution_hi.effective_cache_per_core
        # Stay clear of the parity point, where the direction changes.
        assume(abs(s_lo - s1) > 1e-3 and abs(s_hi - s1) > 1e-3)
        assume((s_lo > s1) == (s_hi > s1))
        if s_lo > s1:
            assert solution_hi.continuous_cores >= \
                solution_lo.continuous_cores - EPS
        else:
            assert solution_hi.continuous_cores <= \
                solution_lo.continuous_cores + EPS

    @COMMON_SETTINGS
    @given(alpha=alphas, die=dies, budget=budgets)
    def test_solution_is_within_budget_and_die(self, alpha, die, budget):
        """The solve lands on the budget (or the die edge) exactly."""
        model = BandwidthWallModel(BASELINE, alpha=alpha)
        solution = model.supportable_cores(die, traffic_budget=budget)
        assert 0 < solution.continuous_cores <= die + EPS
        if not solution.area_limited:
            traffic = model.relative_traffic(
                die, solution.continuous_cores
            )
            assert math.isclose(traffic, budget, rel_tol=1e-6)
