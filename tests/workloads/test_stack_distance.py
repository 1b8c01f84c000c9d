"""Tests for stack-distance sampling, trace synthesis and profiling."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.address_stream import take
from repro.workloads.stack_distance import (
    MissCurve,
    ParetoStackDistanceSampler,
    PowerLawTraceGenerator,
    StackDistanceProfiler,
)


class TestParetoSampler:
    def test_samples_at_least_minimum(self):
        sampler = ParetoStackDistanceSampler(alpha=0.5, maximum=1000, seed=1)
        assert all(sampler.sample() >= 1 for _ in range(500))

    def test_survival_function(self):
        sampler = ParetoStackDistanceSampler(alpha=0.5, maximum=10_000)
        assert sampler.survival(1) == 1.0
        assert sampler.survival(4) == pytest.approx(0.5)
        assert sampler.survival(0.5) == 1.0

    def test_empirical_tail_matches_alpha(self):
        sampler = ParetoStackDistanceSampler(alpha=0.5, maximum=10**9, seed=3)
        samples = [sampler.sample() for _ in range(30_000)]
        tail_100 = sum(s > 100 for s in samples) / len(samples)
        # P(D > 100) = 100^-0.5 = 0.1
        assert tail_100 == pytest.approx(0.1, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoStackDistanceSampler(alpha=0, maximum=10)
        with pytest.raises(ValueError):
            ParetoStackDistanceSampler(alpha=0.5, maximum=10, minimum=0)
        with pytest.raises(ValueError):
            ParetoStackDistanceSampler(alpha=0.5, maximum=1, minimum=1)


class TestTraceGenerator:
    def test_deterministic_given_seed(self):
        a = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024, seed=9)
        b = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024, seed=9)
        assert list(a.accesses(200)) == list(b.accesses(200))

    def test_different_seeds_differ(self):
        a = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024, seed=1)
        b = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024, seed=2)
        assert list(a.accesses(200)) != list(b.accesses(200))

    def test_addresses_within_working_set(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=256,
                                     line_bytes=64, seed=4)
        for access in gen.accesses(2000):
            assert 0 <= access.address < 256 * 64

    def test_write_fraction_respected(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1024,
                                     write_fraction=0.3, seed=5)
        accesses = list(gen.accesses(5000))
        writes = sum(a.is_write for a in accesses) / len(accesses)
        # writes are per-line, so the access-level fraction is noisier
        assert writes == pytest.approx(0.3, abs=0.1)

    def test_writes_are_per_line(self):
        """All accesses to a given line agree on read vs write."""
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=256,
                                     write_fraction=0.5, seed=5)
        kinds = {}
        for access in gen.accesses(3000):
            line = access.address // 64
            if line in kinds:
                assert kinds[line] == access.is_write
            kinds[line] = access.is_write

    def test_touched_words_limit(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=128,
                                     touched_words=3, seed=6)
        for access in gen.accesses(1000):
            assert (access.address % 64) // 8 < 3

    def test_warmup_covers_working_set_once(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=64)
        lines = [a.address // 64 for a in gen.warmup_accesses()]
        assert sorted(lines) == list(range(64))

    def test_iter_is_unbounded(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=128)
        assert len(take(gen, 100)) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLawTraceGenerator(alpha=0.5, working_set_lines=1)
        with pytest.raises(ValueError):
            PowerLawTraceGenerator(alpha=0.5, write_fraction=1.5)
        with pytest.raises(ValueError):
            PowerLawTraceGenerator(alpha=0.5, touched_words=99)
        with pytest.raises(ValueError):
            next(PowerLawTraceGenerator(alpha=0.5).accesses(-1))


class TestStackDistanceProfiler:
    def test_first_access_is_cold(self):
        profiler = StackDistanceProfiler()
        assert profiler.record(10) == StackDistanceProfiler.COLD
        assert profiler.cold_misses == 1

    def test_immediate_reuse_is_distance_one(self):
        profiler = StackDistanceProfiler()
        profiler.record(10)
        assert profiler.record(10) == 1

    def test_classic_sequence(self):
        profiler = StackDistanceProfiler()
        for line in (1, 2, 3, 1):
            last = profiler.record(line)
        assert last == 3  # lines 2 and 3 accessed since, plus itself

    def test_matches_bruteforce_reference(self):
        rng = random.Random(12)
        profiler = StackDistanceProfiler(expected_accesses=64)
        stack = []  # most recent first
        for _ in range(3000):
            line = rng.randrange(60)
            measured = profiler.record(line)
            if line in stack:
                expected = stack.index(line) + 1
                stack.remove(line)
            else:
                expected = StackDistanceProfiler.COLD
            stack.insert(0, line)
            assert measured == expected

    def test_fenwick_growth(self):
        profiler = StackDistanceProfiler(expected_accesses=4)
        for i in range(100):
            profiler.record(i % 7)
        assert profiler.accesses == 100
        assert profiler.record(0) <= 7

    def test_miss_rate_consistency(self):
        """miss_rate(W) must equal simulating a W-line LRU cache."""
        from repro.cache.set_assoc import SetAssociativeCache

        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=512, seed=8)
        accesses = list(gen.accesses(4000))
        profiler = StackDistanceProfiler()
        cache = SetAssociativeCache.fully_associative(64 * 64, 64)
        for access in accesses:
            profiler.record(access.address // 64)
            cache.access(access.address)
        assert profiler.miss_rate(64) == pytest.approx(cache.stats.miss_rate)

    def test_reset_statistics_keeps_recency(self):
        profiler = StackDistanceProfiler()
        profiler.record(1)
        profiler.record(2)
        profiler.reset_statistics()
        assert profiler.accesses == 0
        assert profiler.cold_misses == 0
        assert profiler.record(1) == 2  # recency survived the reset

    def test_miss_curve_monotone(self):
        gen = PowerLawTraceGenerator(alpha=0.4, working_set_lines=2048, seed=2)
        profiler = StackDistanceProfiler()
        profiler.record_stream(gen.accesses(20_000))
        curve = profiler.miss_curve([8, 16, 32, 64, 128, 256])
        rates = list(curve.miss_rates)
        assert rates == sorted(rates, reverse=True)

    def test_miss_curve_exclude_cold(self):
        gen = PowerLawTraceGenerator(alpha=0.4, working_set_lines=2048,
                                     seed=2)
        profiler = StackDistanceProfiler()
        profiler.record_stream(gen.accesses(20_000))
        with_cold = profiler.miss_curve([64])
        without = profiler.miss_curve([64], exclude_cold=True)
        assert without.miss_rates[0] < with_cold.miss_rates[0]

    def test_validation(self):
        profiler = StackDistanceProfiler()
        with pytest.raises(ValueError):
            profiler.miss_rate(1)  # no accesses yet
        profiler.record(0)
        with pytest.raises(ValueError):
            profiler.miss_rate(0)
        with pytest.raises(ValueError):
            profiler.miss_curve([])
        with pytest.raises(ValueError):
            StackDistanceProfiler(expected_accesses=0)


class TestVectorizedProfiler:
    """The profiler's stream and single-record paths.  The kernel behind
    both is checked against a Fenwick oracle in ``test_array_path``."""

    def test_wide_addresses_fall_back_cleanly(self):
        """Addresses past uint64 are refused with a typed error before
        anything is recorded, as trace files refuse them."""
        from repro.workloads.address_stream import MemoryAccess

        profiler = StackDistanceProfiler()
        accesses = [MemoryAccess((1 << 70) + i * 64, False, 0)
                    for i in range(5)] * 2
        with pytest.raises(ValueError, match="64 bits"):
            profiler.record_stream(iter(accesses))
        assert profiler.accesses == 0
        assert profiler.distinct_lines == 0

    def test_stream_batching_matches_single_records(self):
        gen = PowerLawTraceGenerator(alpha=0.5, working_set_lines=512,
                                     seed=11)
        accesses = list(gen.accesses(3000))
        streamed = StackDistanceProfiler()
        streamed.record_stream(iter(accesses))
        single = StackDistanceProfiler()
        for access in accesses:
            single.record(access.address // 64)
        sizes = [8, 32, 128, 512]
        assert streamed.miss_curve(sizes).miss_rates \
            == single.miss_curve(sizes).miss_rates
        assert streamed.cold_misses == single.cold_misses


class TestStationaryAlphaRecovery:
    """The core substrate property: synthesise at alpha, measure alpha."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_measured_alpha_matches_design(self, alpha):
        from repro.analysis.fitting import fit_miss_curve

        gen = PowerLawTraceGenerator(alpha=alpha, working_set_lines=1 << 13,
                                     seed=13)
        profiler = StackDistanceProfiler()
        profiler.record_stream(gen.warmup_accesses())
        profiler.reset_statistics()
        profiler.record_stream(gen.accesses(60_000))
        curve = profiler.miss_curve([2**k for k in range(4, 11)])
        fit = fit_miss_curve(curve)
        assert fit.alpha == pytest.approx(alpha, abs=0.05)
        assert fit.r_squared > 0.99


class TestMissCurve:
    def test_normalization(self):
        curve = MissCurve((16, 32, 64), (0.2, 0.1, 0.05))
        normalized = curve.normalized()
        assert normalized.miss_rates == (1.0, 0.5, 0.25)

    def test_sizes_bytes(self):
        curve = MissCurve((16, 32), (0.2, 0.1))
        assert curve.sizes_bytes(64) == (1024, 2048)

    def test_iteration_and_len(self):
        curve = MissCurve((16, 32), (0.2, 0.1))
        assert len(curve) == 2
        assert list(curve) == [(16, 0.2), (32, 0.1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            MissCurve((1, 2), (0.1,))
        with pytest.raises(ValueError):
            MissCurve((1,), (0.0,)).normalized()
