"""Benchmark: the sweep engine's serial path, grid layer and parallel
fan-out over the analytic (sub-millisecond) experiments."""

import pytest

from repro.analysis.export import result_to_json
from repro.core.presets import paper_baseline_model
from repro.experiments.engine import GridPoint, SweepEngine, sweep_grid

#: The analytic single-generation figures: cheap enough to benchmark
#: with several rounds, numerous enough to exercise scheduling.
ANALYTIC_IDS = [f"fig{k}" for k in range(2, 14)] + ["table2"]


def test_bench_engine_serial(benchmark):
    engine = SweepEngine(max_workers=1)
    sweep = benchmark(engine.run, ANALYTIC_IDS)
    assert [r.experiment_id for r in sweep.runs] == ANALYTIC_IDS
    assert not sweep.parallel


def test_bench_engine_parallel(bench_once):
    """One-round parallel run; asserts equivalence with a serial run."""
    serial = SweepEngine(max_workers=1).run(ANALYTIC_IDS)
    engine = SweepEngine(max_workers=2)
    sweep = bench_once(engine.run, ANALYTIC_IDS)
    assert [r.experiment_id for r in sweep.runs] == ANALYTIC_IDS
    for a, b in zip(serial.runs, sweep.runs):
        assert result_to_json(a.result) == result_to_json(b.result)


def test_bench_sweep_grid(benchmark):
    """The grid layer: every round solves the whole grid."""
    model = paper_baseline_model()
    points = [GridPoint(16.0 + i, traffic_budget=1.0 + 0.01 * i)
              for i in range(200)]
    solutions = benchmark(sweep_grid, model, points)
    assert len(solutions) == len(points)
