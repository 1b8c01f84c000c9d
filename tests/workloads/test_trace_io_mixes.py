"""Tests for trace file I/O."""

import pytest

from repro.workloads.address_stream import MemoryAccess
from repro.workloads.trace_io import (
    TraceFormatError,
    read_trace,
    write_trace,
)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        accesses = [
            MemoryAccess(0x1000, False, 0),
            MemoryAccess(0x1048, True, 2),
            MemoryAccess(64, False, 1),
        ]
        path = tmp_path / "trace.txt"
        assert write_trace(accesses, path) == 3
        assert list(read_trace(path)) == accesses

    def test_gzip_roundtrip(self, tmp_path):
        accesses = [MemoryAccess(i * 64, i % 2 == 0, 0)
                    for i in range(200)]
        path = tmp_path / "trace.txt.gz"
        write_trace(accesses, path)
        assert list(read_trace(path)) == accesses

    def test_synthetic_workload_roundtrips(self, tmp_path):
        from repro.workloads.commercial import commercial_generator

        gen = commercial_generator("OLTP-1", working_set_lines=256)
        accesses = list(gen.accesses(500))
        path = tmp_path / "oltp1.trace"
        write_trace(accesses, path)
        assert list(read_trace(path)) == accesses

    def test_trace_feeds_calibration(self, tmp_path):
        """End to end: a trace file drives the measurement pipeline."""
        from repro.analysis.calibration import measure_miss_curve
        from repro.workloads.commercial import commercial_generator

        gen = commercial_generator("OLTP-1", working_set_lines=1024)
        path = tmp_path / "t.trace"
        write_trace(gen.accesses(10_000), path)
        curve = measure_miss_curve(read_trace(path), [32, 64, 128])
        assert curve.miss_rates[0] > curve.miss_rates[-1]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "# repro-trace v1\n\n# a comment\nR 0x40 0\nW 128\n"
        )
        accesses = list(read_trace(path))
        assert accesses == [
            MemoryAccess(0x40, False, 0),
            MemoryAccess(128, True, 0),
        ]

    @pytest.mark.parametrize("content", [
        "not a trace\nR 0x40 0\n",
        "# repro-trace v1\nX 0x40 0\n",
        "# repro-trace v1\nR zzz 0\n",
        "# repro-trace v1\nR 0x40 0 7 9\n",
        "# repro-trace v1\nR -5 0\n",
        "# repro-trace v1\nR 0x40 -1\n",
        "# repro-trace v1\nR 0x40 quux\n",
    ])
    def test_malformed_traces_rejected(self, tmp_path, content):
        path = tmp_path / "bad.trace"
        path.write_text(content)
        with pytest.raises(TraceFormatError):
            list(read_trace(path))

    def test_wide_addresses_roundtrip(self, tmp_path):
        """Addresses past 2^32 survive unchanged (sharing-mix private
        regions live up there)."""
        accesses = [
            MemoryAccess(1 << 33, False, 0),
            MemoryAccess((1 << 48) + 64, True, 15),
            MemoryAccess((1 << 64) - 64, False, 3),
        ]
        path = tmp_path / "wide.trace"
        write_trace(accesses, path)
        assert list(read_trace(path)) == accesses

    def test_write_rejects_oversized_address(self, tmp_path):
        path = tmp_path / "huge.trace"
        with pytest.raises(TraceFormatError, match="64 bits"):
            write_trace([MemoryAccess(1 << 64, False, 0)], path)

    def test_read_rejects_oversized_address(self, tmp_path):
        path = tmp_path / "huge.trace"
        path.write_text(f"# repro-trace v1\nR {1 << 64:#x} 0\n")
        with pytest.raises(TraceFormatError, match="64 bits"):
            list(read_trace(path))

    def test_write_rejects_empty_stream(self, tmp_path):
        with pytest.raises(TraceFormatError, match="empty"):
            write_trace([], tmp_path / "empty.trace")

    def test_read_rejects_trace_with_no_records(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# repro-trace v1\n# just comments\n\n")
        with pytest.raises(TraceFormatError, match="no records"):
            list(read_trace(path))

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "zero.trace"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="magic"):
            list(read_trace(path))

    def test_read_rejects_truncated_final_record(self, tmp_path):
        path = tmp_path / "cut.trace"
        path.write_text("# repro-trace v1\nR 0x40 0\nW 0x80")
        with pytest.raises(TraceFormatError, match="newline"):
            list(read_trace(path))

    def test_read_rejects_truncated_magic(self, tmp_path):
        path = tmp_path / "cutmagic.trace"
        path.write_text("# repro-trace v1")
        with pytest.raises(TraceFormatError, match="magic"):
            list(read_trace(path))

