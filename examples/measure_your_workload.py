#!/usr/bin/env python3
"""End-to-end substrate demo: measure a workload, then feed the model.

This walks the full measurement pipeline the paper's inputs came from:

1. synthesise a commercial-like address stream (OLTP-4 preset),
2. measure its miss-rate-vs-size curve (stack-distance profiler) and fit
   alpha on log-log axes,
3. measure the write-back ratio and the unused-word fraction with the
   set-associative cache simulator,
4. feed the measured numbers into the analytical model and report how
   many cores the next generation supports.
"""

from repro.analysis.calibration import calibrate_workload
from repro.core import SmallCacheLines, paper_baseline_model
from repro.workloads.commercial import commercial_generator

WORKLOAD = "OLTP-4"
ACCESSES = 80_000
WORKING_SET_LINES = 1 << 13


def make_stream():
    return commercial_generator(
        WORKLOAD, working_set_lines=WORKING_SET_LINES
    ).accesses(ACCESSES)


def make_warmup():
    return commercial_generator(
        WORKLOAD, working_set_lines=WORKING_SET_LINES
    ).warmup_accesses()


def main() -> None:
    # --- steps 1-3: address-stream measurements --------------------------
    print(f"calibrating workload {WORKLOAD!r} "
          f"({ACCESSES} accesses, {WORKING_SET_LINES} lines)...")
    calibration = calibrate_workload(
        WORKLOAD, make_stream, warmup_factory=make_warmup,
        fit_max_lines=1024,
    )
    print(f"  fitted alpha         : {calibration.alpha:.3f} "
          f"(R^2 = {calibration.fit.r_squared:.4f})")
    print(f"  write-back ratio     : {calibration.writeback_ratio:.2f} "
          "write-backs per miss")
    print(f"  unused-word fraction : "
          f"{calibration.unused_word_fraction:.0%} "
          "(paper's realistic assumption: 40%)")

    # --- step 4: feed the model -----------------------------------------
    model = paper_baseline_model(alpha=calibration.alpha)
    base = model.supportable_cores(32)
    technique = SmallCacheLines(calibration.unused_word_fraction)
    boosted = model.supportable_cores(32, effect=technique.effect())
    print(f"\nnext-generation cores for this workload:")
    print(f"  no techniques        : {base.cores}")
    print(f"  {technique.label:<21}: {boosted.cores}")
    print("\nevery input above was *measured* from the substrates, not "
          "assumed.")


if __name__ == "__main__":
    main()
