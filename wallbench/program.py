"""Runs inside the program's processes; started by ``run.py``.

``program.py engine [TRACE_DIR]``
    The experiment engine as ``python -m repro all`` uses it: one
    process, one solve memo, serial.  Prints ``ready`` once imported,
    then answers ``run <id>`` lines with one JSON line holding the
    experiment's time and its golden-encoded result, and ``quit`` with
    the process's peak resident memory.
``program.py serve TRACE_DIR ARGS...``
    ``python -m repro serve ARGS...`` with the span wrappers installed
    first, so every process of the server, pre-forked children
    included, records spans into ``TRACE_DIR``.
"""

from __future__ import annotations

import json
import resource
import runpy
import sys
import time

import spans


def engine(trace_dir) -> int:
    from repro.analysis.export import to_jsonable
    from repro.experiments.engine import SweepEngine
    from repro.experiments.runner import experiment_ids

    recorder = spans.install(trace_dir) if trace_dir else None
    engine_ = SweepEngine(max_workers=1)
    print("ready " + json.dumps(experiment_ids()), flush=True)
    for line in sys.stdin:
        command, _, experiment_id = line.strip().partition(" ")
        if command != "run":
            break
        if recorder is not None:
            recorder.op = experiment_id
            root = recorder.begin("experiments.run")
        started = time.perf_counter()
        run = engine_.run([experiment_id]).runs[0]
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.end(root)
        print(json.dumps({"id": run.experiment_id, "seconds": elapsed,
                          "result": to_jsonable(run.result)}), flush=True)
    if recorder is not None:
        recorder.flush()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


def serve(trace_dir: str, args) -> int:
    recorder = spans.install(trace_dir)
    sys.argv = ["repro", "serve", *args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1
    finally:
        recorder.flush()
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "engine":
        sys.exit(engine(sys.argv[2] if len(sys.argv) > 2 else None))
    sys.exit(serve(sys.argv[2], sys.argv[3:]))
