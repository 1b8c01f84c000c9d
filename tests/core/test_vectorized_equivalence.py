"""Differential suite: the batch kernel vs the scalar solver, bit-for-bit.

The contract of :mod:`repro.core.vectorized` is not "numerically close"
but **byte-identical**: every float the batch path returns must carry
the exact bit pattern the scalar bisection produces, and every error a
scalar loop would raise must surface as the same exception type with
the same message at the same (earliest) query index.  These tests pin
that contract with hypothesis-driven random models, technique stacks
and grids, plus the known hard edges (exact landings, area-limited
designs, unsolvable budgets, non-finite inputs).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import vectorized
from repro.core.area import ChipDesign
from repro.core.scaling import BandwidthWallModel
from repro.core.solver import BracketError
from repro.core.techniques import (
    NEUTRAL_EFFECT,
    CacheCompression,
    CacheLinkCompression,
    DRAMCache,
    LinkCompression,
    SmallerCores,
    ThreeDStackedCache,
    UnusedDataFiltering,
)

#: Technique stacks covering every coefficient the traffic formula
#: consumes: core shrink (f), DRAM density (d), stacked layers (ls),
#: capacity factor (cf) and traffic factor (tf), alone and combined.
EFFECTS = [
    NEUTRAL_EFFECT,
    DRAMCache(8.0).effect(),
    ThreeDStackedCache().effect(),
    ThreeDStackedCache(layer_density=16.0).effect(),
    DRAMCache(16.0).effect().combine(ThreeDStackedCache().effect()),
    SmallerCores(1.0 / 40.0).effect(),
    CacheCompression(2.0).effect(),
    LinkCompression(3.5).effect(),
    CacheLinkCompression(2.0).effect(),
    UnusedDataFiltering(0.4).effect(),
    SmallerCores(0.25).effect().combine(CacheLinkCompression(2.0).effect()),
]

#: Alphas with qualitatively different batch dispatch: the analytic
#: cubic (1/2), companion-matrix polynomials (1/4, 3/4, 1/3, 1),
#: and pure-Newton irrational/over-degree values.
ALPHAS = [0.5, 0.25, 0.75, 1.0 / 3.0, 1.0, 0.48, 0.36, 0.62, 1.37, 0.29]


def assert_identical(scalar, batch, context=""):
    """Bitwise equality of two ScalingSolutions (hex compares NaN too)."""
    assert batch.continuous_cores.hex() == scalar.continuous_cores.hex(), \
        f"{context}: continuous_cores diverged"
    assert batch.area_limited == scalar.area_limited, context
    assert batch.effective_cache_per_core.hex() \
        == scalar.effective_cache_per_core.hex(), context
    assert batch.design == scalar.design, context
    assert batch.traffic_budget == scalar.traffic_budget, context
    assert batch.cores == scalar.cores, context


def scalar_outcomes(model, queries):
    """Per-query scalar results, errors captured as (type, message)."""
    outcomes = []
    for total, budget, effect in queries:
        try:
            outcomes.append(model.solve_point(total, budget, effect))
        except (BracketError, ValueError) as error:
            outcomes.append((type(error), str(error)))
    return outcomes


def batch_outcomes(model, queries):
    """Per-query batch results; errors recovered via singleton batches."""
    try:
        return vectorized.solve_batch(model, queries)
    except (BracketError, ValueError):
        outcomes = []
        for query in queries:
            try:
                outcomes.append(vectorized.solve_batch(model, [query])[0])
            except (BracketError, ValueError) as error:
                outcomes.append((type(error), str(error)))
        return outcomes


def assert_all_identical(model, queries):
    scalar = scalar_outcomes(model, queries)
    batch = batch_outcomes(model, queries)
    for query, expected, actual in zip(queries, scalar, batch):
        context = f"alpha={model.alpha} query={query[:2]}"
        if isinstance(expected, tuple) or isinstance(actual, tuple):
            assert actual == expected, context
        else:
            assert_identical(expected, actual, context)


class TestDifferentialEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from(ALPHAS),
        effect_index=st.integers(min_value=0, max_value=len(EFFECTS) - 1),
        base_total=st.floats(min_value=4.0, max_value=64.0),
        cache_share=st.floats(min_value=0.05, max_value=0.95),
        grid=st.lists(
            st.tuples(
                st.floats(min_value=1.01, max_value=2000.0),
                st.floats(min_value=1e-3, max_value=1e4),
            ),
            min_size=1,
            max_size=48,
        ),
    )
    def test_random_grids_bitwise_equal(
        self, alpha, effect_index, base_total, cache_share, grid
    ):
        baseline = ChipDesign(base_total, base_total * (1.0 - cache_share))
        model = BandwidthWallModel(baseline, alpha=alpha)
        effect = EFFECTS[effect_index]
        queries = [
            (base_total * factor, budget, effect) for factor, budget in grid
        ]
        assert_all_identical(model, queries)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=2.0),
        budget=st.floats(min_value=0.01, max_value=100.0),
        factor=st.floats(min_value=1.01, max_value=64.0),
    )
    def test_continuous_alphas_bitwise_equal(self, alpha, budget, factor):
        """Irrational alphas exercise the pure-Newton estimate path."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=alpha)
        queries = [(16.0 * factor, budget, effect) for effect in EFFECTS]
        assert_all_identical(model, queries)

    def test_paper_grid_all_effects(self):
        """A dense deterministic sweep over the paper's operating range."""
        for alpha in ALPHAS:
            model = BandwidthWallModel(ChipDesign(16, 8), alpha=alpha)
            queries = [
                (ceas, budget, effect)
                for effect in EFFECTS
                for ceas in (16.0, 23.7, 32.0, 64.0, 256.0, 1000.0)
                for budget in (0.5, 1.0, 2.0, 7.3, 32.0, 1000.0)
            ]
            assert_all_identical(model, queries)


class TestHardEdges:
    def test_exact_landing_floor_case(self):
        """The 3D DRAM 16x analytic landing (exactly 32.0 cores) must keep
        its area-limited flag and integer count through the batch path."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        effect = ThreeDStackedCache(layer_density=16.0).effect()
        query = (32.0, 1000.0, effect)
        scalar = model.solve_point(*query)
        batch = vectorized.solve_batch(model, [query] * 20)
        for solution in batch:
            assert_identical(scalar, solution, "3D-DRAM 16x landing")
        assert scalar.area_limited
        assert scalar.continuous_cores == pytest.approx(32.0)
        assert scalar.cores == 32

    def test_unsolvable_budget_raises_identical_bracket_error(self):
        """Pathologically tiny budgets fail under the lower endpoint."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        query = (32.0, 1e-30, NEUTRAL_EFFECT)
        with pytest.raises(BracketError) as scalar_error:
            model.solve_point(*query)
        with pytest.raises(BracketError) as batch_error:
            vectorized.solve_batch(model, [query])
        assert str(batch_error.value) == str(scalar_error.value)
        assert batch_error.value.endpoint == scalar_error.value.endpoint
        assert batch_error.value.target == scalar_error.value.target

    def test_earliest_error_wins_in_mixed_batches(self):
        """A batch with several failing queries must raise for the first
        one in query order, exactly like a scalar loop would."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        good = (32.0, 1.0, NEUTRAL_EFFECT)
        bad_a = (64.0, 1e-30, NEUTRAL_EFFECT)
        bad_b = (32.0, 1e-25, NEUTRAL_EFFECT)
        with pytest.raises(BracketError) as expected:
            model.solve_point(*bad_a)
        with pytest.raises(BracketError) as actual:
            vectorized.solve_batch(model, [good, bad_a, bad_b, good])
        assert str(actual.value) == str(expected.value)

    def test_invalid_queries_raise_before_any_solve(self):
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        with pytest.raises(ValueError, match="total_ceas must be positive"):
            vectorized.solve_batch(
                model, [(32.0, 1.0, NEUTRAL_EFFECT),
                        (-1.0, 1.0, NEUTRAL_EFFECT)]
            )
        with pytest.raises(ValueError,
                           match="traffic_budget must be positive"):
            vectorized.solve_batch(model, [(32.0, 0.0, NEUTRAL_EFFECT)])

    def test_non_finite_budget_matches_scalar_error(self):
        """Infinite budgets are rejected inside solve_increasing; the
        batch guard must delegate them instead of solving them."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        for budget in (math.inf, math.nan):
            query = (32.0, budget, NEUTRAL_EFFECT)
            try:
                model.solve_point(*query)
                expected = None
            except ValueError as error:
                expected = (type(error), str(error))
            try:
                vectorized.solve_batch(model, [query])
                actual = None
            except ValueError as error:
                actual = (type(error), str(error))
            assert actual == expected

    def test_area_limited_family(self):
        """Huge budgets with stacked cache area-limit the whole grid."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        effect = DRAMCache(16.0).effect().combine(
            ThreeDStackedCache(layer_density=16.0).effect()
        )
        queries = [(ceas, 1e6, effect)
                   for ceas in (16.0, 32.0, 64.0, 128.0, 256.0)]
        assert_all_identical(model, queries)
        for solution in vectorized.solve_batch(model, queries):
            assert solution.area_limited

    def test_empty_batch(self):
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        assert vectorized.solve_batch(model, []) == []


class TestDispatchModes:
    def test_mode_roundtrip_and_validation(self):
        previous = vectorized.mode()
        try:
            for name in ("auto", "force", "off"):
                vectorized.configure(name)
                assert vectorized.mode() == name
            with pytest.raises(ValueError, match="mode must be one of"):
                vectorized.configure("fast")
        finally:
            vectorized.configure(previous)

    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.setenv(vectorized.MODE_ENV_VAR, "FORCE")
        assert vectorized._initial_mode() == "force"
        monkeypatch.setenv(vectorized.MODE_ENV_VAR, "off")
        assert vectorized._initial_mode() == "off"
        monkeypatch.setenv(vectorized.MODE_ENV_VAR, "bogus")
        assert vectorized._initial_mode() == "auto"
        monkeypatch.delenv(vectorized.MODE_ENV_VAR)
        assert vectorized._initial_mode() == "auto"

    def test_use_batch_thresholds(self):
        previous = vectorized.mode()
        try:
            vectorized.configure("auto")
            assert not vectorized.use_batch(vectorized.MIN_BATCH_SIZE - 1)
            assert vectorized.use_batch(vectorized.MIN_BATCH_SIZE)
            vectorized.configure("force")
            assert vectorized.use_batch(1)
            vectorized.configure("off")
            assert not vectorized.use_batch(10_000)
        finally:
            vectorized.configure(previous)

    def test_forced_mode_single_solves_bitwise_equal(self):
        """`force` routes supportable_cores through the batch kernel;
        results must still match the scalar path bit-for-bit."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        previous = vectorized.mode()
        try:
            cases = [(ceas, budget)
                     for ceas in (16.0, 32.0, 100.0, 256.0)
                     for budget in (0.5, 1.0, 4.0)]
            vectorized.configure("off")
            scalar = [model.supportable_cores(c, traffic_budget=b)
                      for c, b in cases]
            vectorized.configure("force")
            forced = [model.supportable_cores(c, traffic_budget=b)
                      for c, b in cases]
        finally:
            vectorized.configure(previous)
        for case, expected, actual in zip(cases, scalar, forced):
            assert_identical(expected, actual, f"forced {case}")


class TestBatchEntryPoint:
    def test_supportable_cores_batch_matches_loop(self):
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.48)
        queries = [(16.0 + 8.0 * i, 0.5 + 0.25 * j, EFFECTS[i % len(EFFECTS)])
                   for i in range(8) for j in range(5)]
        expected = [model.supportable_cores(t, traffic_budget=b, effect=e)
                    for t, b, e in queries]
        actual = model.supportable_cores_batch(queries)
        for query, want, got in zip(queries, expected, actual):
            assert_identical(want, got, f"batch {query[:2]}")


class TestTrafficCurve:
    def test_curve_rounds_like_equation_5(self):
        """The hoisted curve the scalar bisection evaluates equals
        ``effective_cache_ceas`` followed by Equation 5, bit for bit."""
        baseline = ChipDesign(16, 8)
        for alpha in ALPHAS:
            model = BandwidthWallModel(baseline, alpha=alpha)
            for effect in EFFECTS:
                for total in (16.0, 37.5, 256.0):
                    curve = model.traffic_curve(total, effect)
                    top = total / effect.core_area_fraction
                    for step in range(1, 41):
                        cores = top * step / 40
                        s2 = effect.effective_cache_ceas(total, cores) / cores
                        want = math.inf if s2 <= 0 else (
                            (cores / baseline.num_cores)
                            * (s2 / baseline.cache_per_core) ** (-alpha)
                            / effect.traffic_factor)
                        assert curve(cores).hex() == want.hex(), \
                            (alpha, effect, total, cores)
