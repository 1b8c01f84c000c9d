"""Concurrency and determinism tests for the parallel sweep engine."""

import pytest

from repro.analysis.export import result_to_json
from repro.core.presets import paper_baseline_model
from repro.experiments import experiment_ids
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    GridPoint,
    SweepEngine,
    default_workers,
    sweep_grid,
)
from repro.core.techniques import DRAMCache

SMALL_IDS = ["fig2", "fig3", "table2"]


class TestParallelEqualsSerial:
    def test_full_registry_byte_identical(self, serial_sweep,
                                          parallel_sweep):
        """The acceptance bar: every artifact's parallel result
        serialises to exactly the same bytes as its serial result."""
        assert [r.experiment_id for r in serial_sweep.runs] == \
            experiment_ids()
        assert [r.experiment_id for r in parallel_sweep.runs] == \
            experiment_ids()
        for serial, parallel in zip(serial_sweep.runs, parallel_sweep.runs):
            assert result_to_json(serial.result) == \
                result_to_json(parallel.result), serial.experiment_id

    def test_parallel_sweep_used_the_pool(self, parallel_sweep):
        assert parallel_sweep.parallel
        assert parallel_sweep.max_workers == 2

    def test_reports_mode_byte_identical(self):
        """Captured paper-style reports match between modes too."""
        serial = SweepEngine(max_workers=1).run(SMALL_IDS, reports=True)
        parallel = SweepEngine(max_workers=2).run(SMALL_IDS, reports=True)
        assert not serial.parallel and parallel.parallel
        for a, b in zip(serial.runs, parallel.runs):
            assert a.report == b.report, a.experiment_id
            assert a.report  # not empty

    def test_sharded_reports_render_without_rerunning(self):
        """A sharded module's report comes from render(result)."""
        parallel = SweepEngine(max_workers=2).run(
            ["ext-validation"], reports=True
        )
        serial = SweepEngine(max_workers=1).run(
            ["ext-validation"], reports=True
        )
        assert parallel.runs[0].report == serial.runs[0].report
        assert parallel.runs[0].result is not None  # merge ran in parent


class TestOrderingAndStreaming:
    def test_results_ordered_by_submission_not_completion(self):
        ids = ["table2", "fig2", "fig13"]
        sweep = SweepEngine(max_workers=2).run(ids)
        assert [r.experiment_id for r in sweep.runs] == \
            ["table2", "fig2", "fig13"]

    def test_on_run_streams_in_submission_order(self):
        seen = []
        SweepEngine(max_workers=2).run(
            SMALL_IDS, on_run=lambda run: seen.append(run.experiment_id)
        )
        assert seen == SMALL_IDS

    def test_accepts_any_spelling(self):
        sweep = SweepEngine(max_workers=1).run(["Figure 2", "tbl2"])
        assert [r.experiment_id for r in sweep.runs] == ["fig2", "table2"]

    def test_unknown_id_raises_with_valid_ids(self):
        with pytest.raises(KeyError) as excinfo:
            SweepEngine(max_workers=1).run(["fig99"])
        assert "fig99" in str(excinfo.value)
        assert "table2" in str(excinfo.value)


class TestFallback:
    def test_max_workers_one_is_serial(self):
        sweep = SweepEngine(max_workers=1).run(["fig2"])
        assert not sweep.parallel
        assert sweep.runs[0].result.supportable_cores_flat == 11

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this environment")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor",
                            broken_pool)
        sweep = SweepEngine(max_workers=4).run(["fig2"])
        assert not sweep.parallel
        assert sweep.runs[0].result.supportable_cores_flat == 11


class TestWorkerAutodetect:
    def test_default_workers_environment_independent(self):
        """CPU_COUNT-style invariant: whatever the host reports, the
        auto-detected worker count is a positive int."""
        workers = default_workers()
        assert isinstance(workers, int)
        assert workers >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(engine_module.WORKERS_ENV_VAR, "3")
        assert default_workers() == 3

    def test_env_override_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv(engine_module.WORKERS_ENV_VAR, "not-a-number")
        assert default_workers() >= 1

    def test_env_override_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv(engine_module.WORKERS_ENV_VAR, "-2")
        assert default_workers() == 1

    def test_engine_defaults_to_autodetect(self, monkeypatch):
        monkeypatch.setenv(engine_module.WORKERS_ENV_VAR, "5")
        assert SweepEngine().max_workers == 5


class TestGridSweep:
    def test_matches_direct_solves_in_order(self):
        model = paper_baseline_model()
        effect = DRAMCache(8.0).effect()
        points = [
            GridPoint(32.0),
            GridPoint(64.0, traffic_budget=1.5),
            GridPoint(32.0, effect=effect),
            GridPoint(32.0),  # duplicate: memo makes it one solve
        ]
        solutions = sweep_grid(model, points)
        expected = [
            model.supportable_cores(p.total_ceas,
                                    traffic_budget=p.traffic_budget,
                                    effect=p.effect)
            for p in points
        ]
        assert solutions == expected
        assert solutions[0] == solutions[3]

    def test_parallel_grid_matches_serial(self):
        model = paper_baseline_model()
        points = [GridPoint(16.0 + i) for i in range(1, 65)]
        serial = sweep_grid(model, points, max_workers=1)
        parallel = sweep_grid(model, points, max_workers=2)
        assert serial == parallel
