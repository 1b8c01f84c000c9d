"""Benchmark-suite configuration.

Each ``test_bench_*`` regenerates one paper artifact (figure or table),
asserts its paper checkpoints, and reports the regeneration time via
pytest-benchmark.  Analytic figures solve in microseconds; the
simulation-backed ones (Figures 1 and 14) dominate the suite's runtime,
so their benchmarks use a single round.
"""

import pytest


@pytest.fixture
def bench_once(benchmark):
    """Benchmark an expensive callable with one round, one iteration."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
