"""Integration tests: substrates -> measurements -> model inputs."""

import pytest

from repro.analysis.calibration import (
    calibrate_workload,
    measure_miss_curve,
    measure_sharing_fraction,
    sharing_vs_cores,
)
from repro.analysis.fitting import fit_miss_curve
from repro.traces.simulate import cross_check_curve
from repro.workloads.commercial import commercial_generator
from repro.workloads.parsec_like import ParsecLikeWorkload
from repro.workloads.stack_distance import PowerLawTraceGenerator


class TestMeasureMissCurve:
    def test_matches_simulated_fully_associative(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024,
                                     seed=3)
        accesses = list(gen.accesses(10_000))
        profiled = measure_miss_curve(accesses, [64])
        simulated = cross_check_curve(accesses, [64], associativity=64)
        assert profiled.miss_rates[0] == pytest.approx(
            simulated.miss_rates[0]
        )

    def test_set_associative_close_to_profiled(self):
        """Finite associativity adds conflict misses but stays close for
        power-law streams."""
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=4096,
                                     seed=5)
        accesses = list(gen.accesses(30_000))
        profiled = measure_miss_curve(accesses, [512])
        simulated = cross_check_curve(accesses, [512], associativity=8)
        assert simulated.miss_rates[0] >= profiled.miss_rates[0] - 1e-9
        assert simulated.miss_rates[0] == pytest.approx(
            profiled.miss_rates[0], rel=0.15
        )

    def test_warmup_stream_removes_cold_misses(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=2048,
                                     seed=7)
        warm = measure_miss_curve(
            gen.accesses(20_000), [64],
            warmup_stream=gen.warmup_accesses(),
        )
        gen2 = PowerLawTraceGenerator(alpha=0.5, working_set_lines=2048,
                                      seed=7)
        cold = measure_miss_curve(gen2.accesses(20_000), [64])
        # Warm measurement has no compulsory component at large sizes.
        assert warm.miss_rates[0] <= cold.miss_rates[0]


class TestCalibrateWorkload:
    @pytest.fixture(scope="class")
    def calibration(self):
        spec_gen = commercial_generator("OLTP-3", working_set_lines=1 << 13)

        def factory():
            return commercial_generator(
                "OLTP-3", working_set_lines=1 << 13
            ).accesses(60_000)

        def warmup():
            return commercial_generator(
                "OLTP-3", working_set_lines=1 << 13
            ).warmup_accesses()

        return calibrate_workload(
            "OLTP-3", factory, warmup_factory=warmup, fit_max_lines=1024
        )

    def test_alpha_matches_design(self, calibration):
        assert calibration.alpha == pytest.approx(0.44, abs=0.05)
        assert calibration.fit.r_squared > 0.99

    def test_writeback_ratio_tracks_written_line_fraction(self, calibration):
        # OLTP presets mark 33% of lines written -> r_wb ~= 0.33
        assert calibration.writeback_ratio == pytest.approx(0.33, abs=0.07)

    def test_unused_fraction_matches_touched_words(self, calibration):
        # presets touch 5 of 8 words -> ~37.5% unused, modulo short
        # residencies that touch fewer
        assert 0.3 < calibration.unused_word_fraction < 0.7

    def test_name_carried(self, calibration):
        assert calibration.name == "OLTP-3"


class TestWritebackRatioConstancy:
    def test_rwb_stable_across_cache_sizes(self):
        """Section 4.2: write-backs are an application-specific constant
        fraction of misses across cache sizes (measured at steady state:
        cache warmed first so every miss evicts)."""
        from repro.cache.set_assoc import SetAssociativeCache

        ratios = []
        for size in (32 * 1024, 64 * 1024, 128 * 1024):
            gen = commercial_generator("OLTP-1", working_set_lines=1 << 13)
            cache = SetAssociativeCache(size_bytes=size)
            for access in gen.warmup_accesses():
                cache.access(access.address, is_write=access.is_write)
            cache.reset_statistics()
            for access in gen.accesses(60_000):
                cache.access(access.address, is_write=access.is_write)
            ratios.append(cache.stats.writeback_ratio)
        spread = max(ratios) - min(ratios)
        assert spread < 0.1


class TestSharingMeasurement:
    def test_single_run(self):
        workload = ParsecLikeWorkload(num_threads=4, seed=5)
        fraction = measure_sharing_fraction(workload, accesses=40_000)
        assert 0.0 < fraction < 1.0

    def test_figure14_shape(self):
        measurements = sharing_vs_cores((4, 8, 16),
                                        accesses_per_core=20_000)
        fractions = [f for _, f in measurements]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_fraction_in_parsec_band(self):
        measurements = sharing_vs_cores((4, 16), accesses_per_core=20_000)
        for _, fraction in measurements:
            assert 0.10 < fraction < 0.25
