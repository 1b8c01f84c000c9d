"""Benchmarks for the measurement substrates themselves.

Not a paper figure — these time the components every simulation-backed
experiment leans on, and pin the calibrations DESIGN.md's substitution
table promises: the bounded-bandwidth simulation matches its closed
form, and the power law extrapolates where the paper says it does.
"""

import pytest

from repro.memory.system import (
    AnalyticThroughputModel,
    BoundedBandwidthSimulation,
    CoreParameters,
)


def test_bench_bandwidth_plateau(bench_once):
    """Event-driven throughput matches the analytic ceiling at the wall."""
    core = CoreParameters(miss_rate=0.01, line_bytes=64,
                          miss_penalty_cycles=100)
    analytic = AnalyticThroughputModel(core, bytes_per_cycle=2.0)
    sim = BoundedBandwidthSimulation(core, bytes_per_cycle=2.0)

    def run():
        return sim.run(24, instructions_per_core=4000).chip_ipc

    ipc = bench_once(run)
    assert ipc == pytest.approx(analytic.chip_throughput(24), rel=0.05)


def test_bench_ext_validation(bench_once):
    """Model-fidelity sweep: the power law extrapolates where the paper
    says it does."""
    from repro.experiments import ext_validation

    result = bench_once(ext_validation.run, accesses=40_000,
                        working_set_lines=1 << 12)
    assert result.commercial_worst < 0.10
    assert result.spec_worst > 3 * result.commercial_worst
