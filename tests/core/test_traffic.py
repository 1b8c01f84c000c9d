"""Tests for the CMP memory-traffic model (Equations 3-5).

Equation 5 is ``BandwidthWallModel.relative_traffic``: the core factor
``P2 / P1`` times the per-core cache factor ``(S2 / S1) ** -alpha``, the
latter being ``PowerLawMissModel.traffic_ratio``.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.area import ChipDesign
from repro.core.powerlaw import PowerLawMissModel
from repro.core.scaling import BandwidthWallModel
from repro.core.techniques import TechniqueEffect


@pytest.fixture
def baseline():
    return ChipDesign(total_ceas=16, core_ceas=8)


def cache_factor(alpha, baseline, candidate):
    """``(S2 / S1) ** -alpha`` — Equation 5's per-core cache factor."""
    return PowerLawMissModel(alpha=alpha).traffic_ratio(
        candidate.cache_per_core, baseline.cache_per_core
    )


class TestWorkedExample:
    """Section 4.2's 8 -> 12 core reallocation example."""

    def test_total_traffic_increase(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        assert model.relative_traffic(16, 12) == pytest.approx(2.6, abs=0.01)

    def test_core_factor(self, baseline):
        """With per-core cache held at S1, only the core count moves traffic."""
        model = BandwidthWallModel(baseline, alpha=0.5)
        assert baseline.with_cores(12).num_cores / baseline.num_cores == 1.5
        assert model.relative_traffic(24, 12) == pytest.approx(1.5)

    def test_cache_factor(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        factor = cache_factor(0.5, baseline, baseline.with_cores(12))
        assert factor == pytest.approx(1.73, abs=0.005)
        assert model.relative_traffic(16, 12) == pytest.approx(
            1.5 * factor, rel=1e-12
        )


class TestDecomposition:
    @given(
        alpha=st.floats(min_value=0.1, max_value=1.0),
        p2=st.floats(min_value=1, max_value=30),
    )
    def test_total_is_product_of_factors(self, alpha, p2):
        base = ChipDesign(total_ceas=16, core_ceas=8)
        model = BandwidthWallModel(base, alpha=alpha)
        candidate = ChipDesign(32, p2)
        core_factor = candidate.num_cores / base.num_cores
        assert model.relative_traffic(32, p2) == pytest.approx(
            core_factor * cache_factor(alpha, base, candidate), rel=1e-12
        )

    def test_identical_designs_have_unit_traffic(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        assert model.relative_traffic(
            baseline.total_ceas, baseline.num_cores
        ) == pytest.approx(1.0)

    @given(alpha=st.floats(min_value=0.1, max_value=1.0))
    def test_proportional_scaling_doubles_traffic(self, alpha):
        """Doubling cores and cache doubles traffic, regardless of alpha."""
        base = ChipDesign(16, 8)
        model = BandwidthWallModel(base, alpha=alpha)
        doubled = base.proportionally_scaled(2)
        total = model.relative_traffic(doubled.total_ceas, doubled.num_cores)
        assert total == pytest.approx(2.0, rel=1e-12)
        assert cache_factor(alpha, base, doubled) == pytest.approx(1.0)

    def test_symmetry_inversion(self, baseline):
        """M(a->b) * M(b->a) = 1."""
        other = ChipDesign(32, 20)
        fwd = BandwidthWallModel(baseline, alpha=0.5).relative_traffic(32, 20)
        back = BandwidthWallModel(other, alpha=0.5).relative_traffic(16, 8)
        assert fwd * back == pytest.approx(1.0, rel=1e-12)


class TestEffectiveCapacityOverride:
    """A technique inflates effective cache (Section 6) without new area."""

    def test_override_changes_only_cache_factor(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        plain = model.relative_traffic(32, 16)
        boosted = model.relative_traffic(
            32, 16, TechniqueEffect(capacity_factor=4.0)
        )
        assert plain == pytest.approx(2.0)  # S2 == S1: the core factor alone
        assert boosted == pytest.approx(plain * 0.5)  # 4x cache, alpha 0.5

    def test_rejects_nonpositive_override(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        with pytest.raises(ValueError):
            model.relative_traffic(32, 16, TechniqueEffect(capacity_factor=0))


class TestSweep:
    def test_traffic_vs_cores_is_increasing(self, baseline):
        model = BandwidthWallModel(baseline, alpha=0.5)
        values = [model.relative_traffic(32, p) for p in range(1, 29)]
        assert values == sorted(values)

    def test_figure2_crossings(self, baseline):
        """Traffic = 1 falls between 11 and 12 cores; = 2 at exactly 16."""
        model = BandwidthWallModel(baseline, alpha=0.5)
        sweep = {p: model.relative_traffic(32, p) for p in range(1, 29)}
        assert sweep[11] < 1.0 < sweep[12]
        assert sweep[16] == pytest.approx(2.0)

    def test_rejects_cacheless_point(self, baseline):
        """No cache means unbounded traffic; a baseline must have cache."""
        model = BandwidthWallModel(baseline, alpha=0.5)
        assert math.isinf(model.relative_traffic(32, 32))
        with pytest.raises(ValueError):
            model.relative_traffic(32, 33)
        with pytest.raises(ValueError):
            BandwidthWallModel(ChipDesign(16, 16), alpha=0.5)

    def test_rejects_bad_alpha(self, baseline):
        with pytest.raises(ValueError):
            BandwidthWallModel(baseline, alpha=-1)
