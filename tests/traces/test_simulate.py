"""The trace cross-check against the per-access simulator it replaced."""

import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.traces.simulate import cross_check_curve
from repro.traces.synthesis import trace_source_streams


def per_access_rates(stream, line_counts, line_bytes, associativity):
    """Miss rates of a fresh SetAssociativeCache per capacity, fed one
    access at a time (the reference the offline passes must equal)."""
    rates = []
    for count in sorted(set(line_counts)):
        cache = SetAssociativeCache(count * line_bytes, line_bytes,
                                    associativity)
        for access in stream:
            cache.access(access.address, is_write=access.is_write,
                         core_id=access.core_id)
        rates.append(cache.stats.miss_rate)
    return tuple(rates)


@pytest.mark.parametrize("source, unit, line_bytes, associativity", [
    ("powerlaw", 0.5, 64, 8),
    ("powerlaw", 0.3, 32, 2),
    ("sharing", 4, 64, 16),
])
def test_cross_check_equals_per_access_replay(source, unit, line_bytes,
                                              associativity):
    stream = trace_source_streams(source, unit, accesses=6000,
                                  working_set_lines=1024,
                                  line_bytes=line_bytes, seed=5).stream
    line_counts = [256, 16, 64, 64]
    curve = cross_check_curve(stream, line_counts, line_bytes=line_bytes,
                              associativity=associativity)
    assert curve.line_counts == (16, 64, 256)
    assert curve.miss_rates == per_access_rates(
        stream, line_counts, line_bytes, associativity)

