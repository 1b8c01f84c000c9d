#!/usr/bin/env python3
"""Calibrate the model from a trace file (the production workflow).

A user with a real workload would capture an address trace (from a
binary-instrumentation tool or simulator), save it in the repro-trace
format, and run this pipeline.  Here we *make* the trace from a
synthetic workload, but everything after `write_trace` works the same
for a real one:

1. write/read a `.trace.gz` file,
2. measure the miss curve and fit alpha from the trace,
3. ask the model what the trace's owner can expect from the next two
   technology generations.
"""

import tempfile
from pathlib import Path

from repro import BandwidthWallModel, paper_baseline_design
from repro.analysis.calibration import measure_miss_curve
from repro.analysis.fitting import fit_miss_curve
from repro.workloads.commercial import commercial_generator
from repro.workloads.trace_io import read_trace, write_trace


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="bandwidth-wall-") as workdir:
        calibrate(Path(workdir) / "workload.trace.gz")


def calibrate(trace_path: Path) -> None:
    # --- 1. capture (here: synthesise) a trace -----------------------
    generator = commercial_generator("OLTP-4", working_set_lines=1 << 13)
    count = write_trace(generator.accesses(80_000), trace_path)
    size_kb = trace_path.stat().st_size / 1024
    print(f"wrote {count} accesses to {trace_path.name} "
          f"({size_kb:.0f} KB gzipped)")

    # --- 2. measure and fit ------------------------------------------
    warm_generator = commercial_generator(
        "OLTP-4", working_set_lines=1 << 13
    )
    curve = measure_miss_curve(
        read_trace(trace_path),
        [2**k for k in range(4, 13)],
        warmup_stream=warm_generator.warmup_accesses(),
    )
    fit = fit_miss_curve(curve, max_lines=1024)
    print(f"fitted alpha = {fit.alpha:.3f} (R^2 = {fit.r_squared:.4f})")
    if not fit.conforms:
        print("warning: this workload does not follow the power law; "
              "model projections will extrapolate poorly")

    # --- 3. project ---------------------------------------------------
    model = BandwidthWallModel(paper_baseline_design(), alpha=fit.alpha)
    for ceas in (32, 64):
        solution = model.supportable_cores(ceas)
        print(f"{ceas:>3.0f} CEAs: {solution.cores} cores under constant "
              f"traffic ({solution.core_area_share:.0%} of die)")


if __name__ == "__main__":
    main()
