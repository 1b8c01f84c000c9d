"""TraceParams: canonicalisation, validation, item round-trips."""

import pytest

from repro.traces import TraceParams
from repro.traces.pipeline import DEFAULT_LINE_COUNTS, DEFAULT_UNITS


class TestCreate:
    def test_defaults_per_source(self):
        for source, units in DEFAULT_UNITS.items():
            params = TraceParams.create(source=source)
            assert params.units == units
            assert params.line_counts == DEFAULT_LINE_COUNTS

    def test_units_coerce_to_source_type(self):
        params = TraceParams.create(source="powerlaw", units=["0.5", 1])
        assert params.units == (0.5, 1.0)
        params = TraceParams.create(source="sharing", units=["4", 8.0])
        assert params.units == (4, 8)

    def test_line_counts_sorted_and_deduplicated(self):
        params = TraceParams.create(source="powerlaw",
                                    line_counts=[64, 16, 64, 32])
        assert params.line_counts == (16, 32, 64)

    def test_two_spellings_produce_equal_params(self):
        a = TraceParams.create(source="sharing", units=[4, 8],
                               line_counts=[128, 32])
        b = TraceParams.create(source="sharing", units=["4", "8"],
                               line_counts=(32, 128, 32))
        assert a == b

    def test_chunk_is_one_unit(self):
        params = TraceParams.create(source="powerlaw",
                                    units=[0.3, 0.5, 0.7])
        assert params.chunk_count() == 3


class TestValidation:
    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown trace source"):
            TraceParams.create(source="oracle")

    def test_empty_units(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceParams.create(source="powerlaw", units=[])

    def test_powerlaw_units_must_be_alphas(self):
        with pytest.raises(ValueError, match="alphas"):
            TraceParams.create(source="powerlaw", units=[0.0])
        with pytest.raises(ValueError, match="alphas"):
            TraceParams.create(source="powerlaw", units=[5.0])

    def test_sharing_units_must_be_positive_ints(self):
        with pytest.raises(ValueError, match="positive integers"):
            TraceParams.create(source="sharing", units=[0])
        with pytest.raises(ValueError):
            TraceParams.create(source="sharing", units=[-2])

    def test_line_bytes_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TraceParams.create(source="powerlaw", line_bytes=48)

    def test_unsorted_line_counts_rejected_by_constructor(self):
        with pytest.raises(ValueError, match="ascending"):
            TraceParams(source="powerlaw", units=(0.5,),
                        line_counts=(64, 32))

    def test_nonpositive_accesses_and_capacities(self):
        with pytest.raises(ValueError, match="accesses"):
            TraceParams.create(source="powerlaw", accesses=0)
        with pytest.raises(ValueError, match="capacit"):
            TraceParams.create(source="powerlaw", line_counts=[0, 4])


class TestItems:
    def test_roundtrip(self):
        params = TraceParams.create(source="sharing", units=[4, 16],
                                    accesses=5000, seed=7,
                                    associativity=8)
        assert TraceParams.from_items(params.to_items()) == params

    def test_json_lists_tolerated(self):
        params = TraceParams.create(source="powerlaw", units=[0.5])
        items = {key: (list(value) if isinstance(value, tuple) else value)
                 for key, value in params.to_items()}
        assert TraceParams.from_items(items) == params

    def test_missing_fields_named(self):
        with pytest.raises(ValueError, match="missing fields.*seed"):
            TraceParams.from_items({"source": "powerlaw"})


class TestCost:
    def test_total_accesses_flat_sources(self):
        params = TraceParams.create(source="powerlaw",
                                    units=[0.3, 0.5], accesses=1000)
        assert params.total_accesses == 2000

    def test_total_accesses_scales_with_sharing_cores(self):
        params = TraceParams.create(source="sharing", units=[4, 16],
                                    accesses=1000)
        assert params.total_accesses == 20_000

    def test_cost_counts_one_pass_without_cross_check(self):
        params = TraceParams.create(source="sharing", units=[4, 16],
                                    accesses=1000, line_counts=[8, 16])
        assert params.cost() == params.total_accesses == 20_000

    def test_cost_adds_one_pass_per_cross_checked_capacity(self):
        params = TraceParams.create(source="powerlaw", units=[0.3, 0.5],
                                    accesses=1000, line_counts=[8, 16, 32],
                                    associativity=8)
        assert params.cost() == 2000 * (1 + 3)

    def test_reference_line_count_is_curve_midpoint(self):
        params = TraceParams.create(source="powerlaw",
                                    line_counts=[16, 64, 256])
        assert params.reference_line_count() == 64
