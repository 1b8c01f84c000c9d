"""Chunk protocol and end-to-end acceptance for the trace pipeline."""

import json

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from repro.jobs.spec import JobSpec
from repro.traces import (
    TraceParams,
    assemble_trace_artifact,
    execute_trace_chunk,
    run_trace,
)

FAST = dict(source="powerlaw", units=[0.5], accesses=8000,
            working_set_lines=4096, line_counts=[2**k for k in range(3, 10)],
            fit_max_lines=512)


class TestChunkProtocol:
    def test_chunked_equals_serial_bytes(self):
        params = TraceParams.create(source="powerlaw",
                                    units=[0.36, 0.62], accesses=5000,
                                    working_set_lines=2048)
        payloads = [execute_trace_chunk(params, index)
                    for index in range(params.chunk_count())]
        chunked = assemble_trace_artifact(params, payloads)
        assert json.dumps(chunked, sort_keys=True) \
            == json.dumps(run_trace(params), sort_keys=True)

    def test_chunk_reexecution_is_deterministic(self):
        params = TraceParams.create(**FAST)
        assert json.dumps(execute_trace_chunk(params, 0)) \
            == json.dumps(execute_trace_chunk(params, 0))

    def test_chunk_index_bounds(self):
        params = TraceParams.create(**FAST)
        with pytest.raises(IndexError):
            execute_trace_chunk(params, 1)
        with pytest.raises(IndexError):
            execute_trace_chunk(params, -1)

    def test_scan_source_reports_fit_error_instead_of_crashing(self):
        params = TraceParams.create(
            source="sequential", accesses=4000, working_set_lines=256,
            line_counts=[16, 64, 256, 1024],
        )
        artifact = run_trace(params)
        unit = artifact["units"][0]
        # a cyclic scan's stationary curve floors at 1.0 below the
        # footprint and 0 above -- no loggable power law anywhere
        assert "error" in unit["power_fit"] \
            or unit["power_fit"]["r_squared"] < 0.95
        assert artifact["count"] == 1

    def test_cross_check_close_to_lru_at_high_associativity(self):
        params = TraceParams.create(
            source="powerlaw", units=[0.5], accesses=4000,
            working_set_lines=512, line_counts=[64, 128, 256],
            associativity=64,
        )
        artifact = run_trace(params)
        check = artifact["units"][0]["cross_check"]
        assert check["associativity"] == 64
        assert check["max_delta"] < 0.05


class TestJobsIntegration:
    def spec(self):
        return JobSpec.trace_job(source="powerlaw", units=(0.36, 0.62),
                                 accesses=5000, working_set_lines=2048)

    def test_spec_roundtrip(self):
        spec = self.spec()
        assert spec.kind == "trace"
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_spec_requires_resolved_params(self):
        with pytest.raises(ValueError, match="TraceParams"):
            JobSpec("trace", {"source": "powerlaw"})

    def test_params_or_kwargs_not_both(self):
        params = TraceParams.create(source="powerlaw")
        with pytest.raises(ValueError, match="not both"):
            JobSpec.trace_job(params=params, source="powerlaw")

    def test_one_chunk_per_unit(self):
        spec = self.spec()
        assert chunk_count(spec) == 2
        assert chunk_count(JobSpec.trace_job(params=spec.params,
                                             chunk_size=5)) == 2

    def test_executor_chunks_assemble_to_serial_artifact(self):
        spec = self.spec()
        params = spec.params
        payloads = [execute_chunk(spec, index)
                    for index in range(chunk_count(spec))]
        assert encode_artifact(serial_artifact(spec)) == encode_artifact(
            assemble_trace_artifact(params, payloads))


class TestAcceptance:
    @pytest.mark.slow
    def test_fitted_alpha_within_tolerance_of_generating(self):
        """ISSUE 9's acceptance bar: synthesise at alpha, fit the
        simulated curve, land within 0.02."""
        params = TraceParams.create(source="powerlaw", units=[0.48],
                                    accesses=60_000)
        artifact = run_trace(params)
        fitted = artifact["units"][0]["yavits_fit"]["alpha"]
        assert fitted == pytest.approx(0.48, abs=0.02)
        assert artifact["units"][0]["yavits_fit"]["r_squared"] > 0.99

    def test_sharing_compulsory_declines_with_cores(self):
        """Figure 14's direction at test-sized parameters."""
        params = TraceParams.create(
            source="sharing", units=[4, 16], accesses=8000,
            working_set_lines=2048,
            line_counts=[2**k for k in range(4, 17)], fit_max_lines=0,
        )
        artifact = run_trace(params)
        floors = [unit["yavits_fit"]["compulsory"]
                  for unit in artifact["units"]]
        cold_rates = [unit["cold_misses"] / unit["accesses"]
                      for unit in artifact["units"]]
        assert floors[0] > floors[1] > 0
        assert cold_rates[0] > cold_rates[1]

    def test_calibrated_model_is_solver_ready(self):
        artifact = run_trace(TraceParams.create(**FAST))
        model = artifact["units"][0]["model"]
        assert 0 < model["baseline_miss_rate"] <= 1
        assert model["alpha"] == \
            artifact["units"][0]["yavits_fit"]["alpha"]
        assert model["baseline_cache_size_bytes"] > 0
