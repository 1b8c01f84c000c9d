"""Unit tests for the performance-trajectory regression gate.

The gate (``benchmarks/trajectory.py --gate``) is CI's only defence
against silent performance regressions, so its comparison logic gets
pinned here: direction handling, per-metric allowances, tolerance of
missing sections, and the CLI exit codes.
"""

import json

import pytest

from benchmarks.trajectory import (
    DEFAULT_THRESHOLD,
    GATED_METRICS,
    compare_artifacts,
    main,
    run_gate,
)


def artifact(speedup=5.0, sweep_work=100.0, powerlaw_speedup=1.2,
             optimize_rate=10_000.0):
    return {
        "schema": 1,
        "solver": {"speedup": speedup, "grid_points": 10_000},
        "sweeps": {"ext-validation": {"seconds": 6.0,
                                      "normalized_work": sweep_work}},
        "powerlaw": {"speedup": powerlaw_speedup},
        "optimize": {"points": 768, "normalized_rate": optimize_rate},
    }


class TestCompareArtifacts:
    def test_identical_artifacts_pass(self):
        assert compare_artifacts(artifact(), artifact()) == []

    def test_small_drift_within_threshold_passes(self):
        new = artifact(speedup=4.8, sweep_work=108.0)
        assert compare_artifacts(new, artifact()) == []

    def test_speedup_regression_fails(self):
        # speedup carries a 2x allowance: 15% threshold -> 30% band.
        new = artifact(speedup=5.0 * 0.65)
        failures = compare_artifacts(new, artifact())
        assert len(failures) == 1
        assert "solver.speedup" in failures[0]

    def test_speedup_within_doubled_allowance_passes(self):
        new = artifact(speedup=5.0 * 0.75)
        assert compare_artifacts(new, artifact()) == []

    def test_wall_time_regression_fails_beyond_scaled_allowance(self):
        # sweeps carry a 1.5x scale: 15% threshold -> 22.5% allowance.
        within = artifact(sweep_work=100.0 * 1.2)
        assert compare_artifacts(within, artifact()) == []
        new = artifact(sweep_work=100.0 * 1.3)
        failures = compare_artifacts(new, artifact())
        assert len(failures) == 1
        assert "sweeps.ext-validation.normalized_work" in failures[0]

    def test_improvements_never_fail(self):
        new = artifact(speedup=50.0, sweep_work=1.0, powerlaw_speedup=9.0)
        assert compare_artifacts(new, artifact()) == []

    def test_multiple_regressions_all_reported(self):
        new = artifact(speedup=1.0, sweep_work=1e6, powerlaw_speedup=0.1)
        failures = compare_artifacts(new, artifact())
        assert len(failures) == 3

    def test_missing_sections_are_skipped(self):
        """An artifact without a section the baseline has (here the
        fig1 sweep) must only compare the metrics both sides have."""
        new = artifact()
        baseline = artifact()
        baseline["sweeps"]["fig1"] = {"normalized_work": 5000.0}
        assert compare_artifacts(new, baseline) == []

    def test_optimize_rate_regression_fails(self):
        # optimize.normalized_rate (points/s over the calibration
        # rate) carries the 2x timing allowance.
        new = artifact(optimize_rate=10_000.0 * 0.65)
        failures = compare_artifacts(new, artifact())
        assert len(failures) == 1
        assert "optimize.normalized_rate" in failures[0]

    def test_baseline_without_optimize_section_passes(self):
        """BENCH artifacts recorded before the optimizer existed must
        keep gating newer artifacts without tripping on the section."""
        baseline = artifact()
        del baseline["optimize"]
        assert compare_artifacts(artifact(), baseline) == []

    def test_scalar_only_artifact_skips_vectorized_metrics(self):
        new = artifact()
        del new["solver"]["speedup"]
        assert compare_artifacts(new, artifact()) == []

    def test_custom_threshold(self):
        new = artifact(sweep_work=104.0)
        assert compare_artifacts(new, artifact(), threshold=0.05) == []
        assert compare_artifacts(new, artifact(), threshold=0.02)

    def test_gated_metric_table_is_well_formed(self):
        assert GATED_METRICS
        for path, direction, scale in GATED_METRICS:
            assert direction in ("higher", "lower")
            assert scale >= 1.0
            assert all(isinstance(key, str) for key in path)
        assert 0 < DEFAULT_THRESHOLD < 1


class TestGateCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_gate_exits_zero(self, tmp_path, capsys):
        new = self.write(tmp_path, "new.json", artifact())
        base = self.write(tmp_path, "base.json", artifact())
        assert run_gate(new, base, DEFAULT_THRESHOLD) == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_failing_gate_exits_nonzero_and_names_metrics(
        self, tmp_path, capsys
    ):
        new = self.write(tmp_path, "new.json", artifact(speedup=1.0))
        base = self.write(tmp_path, "base.json", artifact())
        assert run_gate(new, base, DEFAULT_THRESHOLD) == 1
        out = capsys.readouterr().out
        assert "PERF GATE FAILED" in out
        assert "solver.speedup" in out

    def test_missing_baseline_skips_gate(self, tmp_path, capsys):
        """First run on a branch: no committed BENCH baseline yet."""
        new = self.write(tmp_path, "new.json", artifact())
        missing = str(tmp_path / "BENCH_999.json")
        assert run_gate(new, missing, DEFAULT_THRESHOLD) == 0
        assert "perf gate skipped" in capsys.readouterr().out

    def test_main_gate_mode(self, tmp_path):
        new = self.write(tmp_path, "new.json", artifact(sweep_work=500.0))
        base = self.write(tmp_path, "base.json", artifact())
        assert main(["--gate", new, "--against", base]) == 1
        assert main(["--gate", new, "--against", base,
                     "--threshold", "5.0"]) == 0

    def test_main_requires_both_gate_flags(self, tmp_path):
        new = self.write(tmp_path, "new.json", artifact())
        with pytest.raises(SystemExit):
            main(["--gate", new])
