"""End-to-end integration tests across the whole stack.

Each test exercises a full pipeline the way a user of the library
would: workload synthesis -> simulation -> fitting/calibration ->
analytical model -> scaling answers, and cross-layer consistency checks
between the model and the substrates.
"""

import pytest

from repro import (
    CacheCompression,
    ChipDesign,
    BandwidthWallModel,
    LinkCompression,
    SmallCacheLines,
    TechniqueStack,
    paper_baseline_model,
)
from repro.analysis.calibration import calibrate_workload
from repro.cache.set_assoc import SetAssociativeCache
from repro.memory.system import (
    AnalyticThroughputModel,
    BoundedBandwidthSimulation,
    CoreParameters,
)
from repro.workloads.commercial import commercial_generator
from repro.workloads.stack_distance import PowerLawTraceGenerator


class TestMeasureThenModel:
    """The canonical pipeline: measure a workload, ask the model."""

    @pytest.fixture(scope="class")
    def calibration(self):
        def factory():
            return commercial_generator(
                "SPECjbb (linux)", working_set_lines=1 << 13
            ).accesses(60_000)

        def warmup():
            return commercial_generator(
                "SPECjbb (linux)", working_set_lines=1 << 13
            ).warmup_accesses()

        return calibrate_workload("SPECjbb (linux)", factory,
                                  warmup_factory=warmup,
                                  fit_max_lines=1024)

    def test_measured_alpha_drives_the_model(self, calibration):
        model = paper_baseline_model(alpha=calibration.alpha)
        cores = model.supportable_cores(32).cores
        # alpha ~0.5 must land on the paper's 11-core answer
        assert cores == 11

    def test_measured_unused_fraction_feeds_smcl(self, calibration):
        model = paper_baseline_model(alpha=calibration.alpha)
        effect = SmallCacheLines(calibration.unused_word_fraction).effect()
        boosted = model.supportable_cores(32, effect=effect).cores
        assert boosted > 11


class TestModelSimulatorConsistency:
    def test_equation5_predicts_simulated_traffic_ratio(self):
        """Double the simulated cache and check the measured traffic
        ratio against (C2/C1)^-alpha with the measured alpha."""
        def run(size_bytes):
            gen = PowerLawTraceGenerator(alpha=0.5,
                                         working_set_lines=1 << 13,
                                         seed=23)
            cache = SetAssociativeCache(size_bytes=size_bytes)
            for access in gen.warmup_accesses():
                cache.access(access.address, is_write=access.is_write)
            cache.reset_statistics()
            for access in gen.accesses(50_000):
                cache.access(access.address, is_write=access.is_write)
            return cache.stats

        small = run(32 * 1024)
        large = run(128 * 1024)
        measured_ratio = (
            large.traffic_per_access / small.traffic_per_access
        )
        predicted = (128 / 32) ** -0.5
        assert measured_ratio == pytest.approx(predicted, rel=0.12)

    def test_link_compression_equals_bandwidth_growth(self):
        """LinkCompression(r) in the model == channel with r-times
        bandwidth in the queueing/throughput substrate."""
        core = CoreParameters(miss_rate=0.01)
        base = AnalyticThroughputModel(core, bytes_per_cycle=2.0)
        compressed_core = CoreParameters(miss_rate=0.01, line_bytes=32)
        compressed = AnalyticThroughputModel(compressed_core,
                                             bytes_per_cycle=2.0)
        widened = AnalyticThroughputModel(core, bytes_per_cycle=4.0)
        assert compressed.saturation_cores() == pytest.approx(
            widened.saturation_cores()
        )
        assert compressed.saturation_cores() == pytest.approx(
            2 * base.saturation_cores()
        )

    def test_wall_position_tracks_model_core_count(self):
        """The bounded-bandwidth simulation saturates at more cores when
        the cache per core grows as the model prescribes."""
        from repro.core import PowerLawMissModel

        law = PowerLawMissModel(alpha=0.5, baseline_miss_rate=0.02,
                                baseline_cache_size=1.0)
        thin = CoreParameters(miss_rate=law.miss_rate(1.0))
        fat = CoreParameters(miss_rate=law.miss_rate(4.0))
        sim_thin = BoundedBandwidthSimulation(thin, bytes_per_cycle=2.0)
        sim_fat = BoundedBandwidthSimulation(fat, bytes_per_cycle=2.0)
        ipc_thin = sim_thin.run(32, 3000).chip_ipc
        ipc_fat = sim_fat.run(32, 3000).chip_ipc
        # 4x cache halves misses (alpha=0.5) -> ~2x the plateau
        assert ipc_fat / ipc_thin == pytest.approx(2.0, rel=0.15)


class TestScenarioConsistency:
    def test_stacked_techniques_equal_manual_combination(self):
        model = paper_baseline_model()
        stack = TechniqueStack(
            (CacheCompression(2.0), LinkCompression(2.0))
        )
        via_stack = model.supportable_cores(64, effect=stack.effect())
        manual = model.supportable_cores(
            64,
            traffic_budget=2.0,
            effect=CacheCompression(2.0).effect(),
        )
        assert via_stack.continuous_cores == pytest.approx(
            manual.continuous_cores
        )

    def test_cli_solve_matches_library(self, capsys):
        from repro.cli import main as cli_main

        cli_main(["solve", "--ceas", "64", "--technique", "DRAM=8"])
        out = capsys.readouterr().out
        model = paper_baseline_model()
        from repro import DRAMCache

        expected = model.supportable_cores(
            64, effect=DRAMCache(8.0).effect()
        ).cores
        assert f"cores         : {expected}" in out

    def test_experiment_results_match_direct_model_calls(self):
        from repro.experiments import fig05

        result = fig05.run()
        model = paper_baseline_model()
        from repro import DRAMCache

        for density, cores in result.cores_by_parameter.items():
            direct = model.supportable_cores(
                32, effect=DRAMCache(density).effect()
            ).cores
            assert cores == direct

    def test_baseline_chip_self_consistency(self):
        """The baseline chip's own traffic is exactly 1x."""
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
        assert model.relative_traffic(16, 8) == pytest.approx(1.0)
