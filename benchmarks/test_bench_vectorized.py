"""Benchmark: the vectorized batch kernel vs the scalar solve loop.

Reports the batch kernel's throughput on a full-sweep-sized grid via
pytest-benchmark and asserts a deliberately loose speedup floor — the
precise trajectory (and its regression gate) lives in
``benchmarks/trajectory.py`` / ``BENCH_<n>.json``; this test just
keeps the kernel from silently degrading to scalar speed inside the
benchmark suite.
"""

import time

from repro.core import vectorized
from repro.core.area import ChipDesign
from repro.core.scaling import BandwidthWallModel
from repro.core.techniques import NEUTRAL_EFFECT

GRID_SIDE = 40  # 1600 points, one model — a typical sweep chunk load


def build_queries():
    return [
        (16.0 + i * 12.0, 0.3 + j * 0.11, NEUTRAL_EFFECT)
        for i in range(GRID_SIDE)
        for j in range(GRID_SIDE)
    ]


def test_bench_batch_solve(benchmark, bench_once):
    model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
    queries = build_queries()

    # Warm numpy, then time the scalar reference inline (the benchmark
    # fixture times the batch kernel).
    vectorized.solve_batch(model, queries[:32])
    start = time.perf_counter()
    scalar = [model.solve_point(*query) for query in queries]
    scalar_elapsed = time.perf_counter() - start

    batch = bench_once(vectorized.solve_batch, model, queries)

    # Identity holds on the benchmark grid too.
    assert [s.continuous_cores for s in batch] \
        == [s.continuous_cores for s in scalar]

    if benchmark.stats is None:
        return
    batch_elapsed = benchmark.stats.stats.total
    speedup = scalar_elapsed / batch_elapsed if batch_elapsed else 0.0
    benchmark.extra_info["grid_points"] = len(queries)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    # Loose floor: the measured trajectory pins >5x; anything under 2x
    # means the batch path effectively stopped vectorizing.
    assert speedup > 2.0
