"""Measured performance trajectory for the solver core.

Produces ``BENCH_<n>.json`` artifacts that pin the repository's
performance story over time:

* **calibration** — scalar solves/sec on a tiny fixed grid.  A pure
  machine-speed proxy: dividing wall-times by it yields
  machine-independent "work units" so artifacts recorded on different
  hardware stay comparable.
* **solver** — scalar vs vectorized solves/sec on the fig-1 sweep grid
  (a dense die x budget grid swept across Figure 1's fitted alphas,
  0.25–0.62), memo disabled.  The headline number is the speedup.
* **sweeps** — end-to-end wall time of representative experiment ids
  (fig1, fig9, ext-validation) through the serial engine path.
* **service** — closed-loop throughput and server-side p99 of the
  model-serving API, the PR-2 load harness shape (8 threads x 25
  requests against ``/v1/solve``).
* **powerlaw** — batch vs scalar miss-rate evaluation rates.
* **optimize** — exhaustive design-space search throughput (technique
  configurations evaluated per second through the PR-7 optimizer),
  also divided by the calibration rate for the gate.
* **traces** — trace-simulation throughput: accesses profiled per
  second through the one-pass stack-distance pipeline (synthesis,
  Mattson profiling, curve evaluation and the Yavits fit end to end),
  also divided by the calibration rate for the gate.
* **scaleout** — pre-fork serving throughput (1 process vs N behind
  one port) and worker-fleet drain speedup (1 claimer vs N over one
  job store), measured against real subprocesses.  The section
  records ``cpu_count`` because both ratios are physically bounded by
  it: near 1.0 on a single-core host, >=2.5x serving and >=3x fleet
  on a 4-core host.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py --output new.json
    PYTHONPATH=src python benchmarks/trajectory.py \\
        --gate new.json --against BENCH_10.json --threshold 0.15

When ``--against`` names a file that does not exist yet the gate is
skipped with a note instead of failing — the first run on a branch has
no committed baseline.

The gate compares a fresh artifact against a committed baseline and
exits non-zero when a gated metric regressed by more than the
threshold: solver speedup and service throughput may not drop, and
calibration-normalized sweep times may not grow.  Only metrics present
in both artifacts are compared, so older baselines keep gating newer,
richer artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

#: Figure 1's fitted alpha range (SPEC2006 average .. OLTP-4).
FIG1_ALPHAS = 25

#: Relative change beyond which the gate fails a metric.
DEFAULT_THRESHOLD = 0.15

#: Timed rounds behind each gated in-process metric (see :func:`_rounds`).
ROUNDS = 5


# ----------------------------------------------------------------------
# Measurement sections
# ----------------------------------------------------------------------


def _fig1_grid():
    """(model, queries) pairs spanning the fig-1 alpha range densely.

    The alpha mix picks the dispatch path (cubic vs companion vs
    Newton), so it stays fixed for speedups to compare across artifacts.
    """
    from repro.core.area import ChipDesign
    from repro.core.powerlaw import ALPHA_COMMERCIAL_MAX, ALPHA_SPEC2006_AVG
    from repro.core.scaling import BandwidthWallModel
    from repro.core.techniques import NEUTRAL_EFFECT

    count = FIG1_ALPHAS
    side = 20
    low, high = ALPHA_SPEC2006_AVG, ALPHA_COMMERCIAL_MAX
    alphas = [low + i * (high - low) / (count - 1) for i in range(count)]
    pairs = []
    for alpha in alphas:
        model = BandwidthWallModel(ChipDesign(16, 8), alpha=alpha)
        queries = [
            (16.0 + i * 24.0, 0.3 + j * 0.17, NEUTRAL_EFFECT)
            for i in range(side)
            for j in range(side)
        ]
        pairs.append((model, queries))
    return pairs


def _scalar_rate(best_of: int = 5) -> float:
    """Scalar solves/sec on a small fixed grid — the machine-speed
    proxy every ``normalized_work`` metric divides through."""
    from repro.core import memo
    from repro.core.area import ChipDesign
    from repro.core.scaling import BandwidthWallModel
    from repro.core.techniques import NEUTRAL_EFFECT

    model = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)
    queries = [(16.0 + i, 0.5 + 0.01 * i, NEUTRAL_EFFECT)
               for i in range(500)]
    with memo.disabled():
        for query in queries[:50]:  # warm-up
            model.solve_point(*query)
        elapsed = math.inf
        for _ in range(best_of):
            start = time.perf_counter()
            for query in queries:
                model.solve_point(*query)
            elapsed = min(elapsed, time.perf_counter() - start)
    return len(queries) / elapsed


def _rounds(measure: Callable[[], float]) -> Tuple[float, float]:
    """Median over :data:`ROUNDS` rounds of ``measure()`` (seconds), and
    of those seconds times the calibration rate averaged over the passes
    right before and after each round.

    On shared hosts machine speed swings within a second (the
    calibration read 10k-18k solves/s on consecutive passes of one
    process on a 2-vCPU host, timed by wall clock or by CPU time alike),
    and pure-Python and numpy-bound work do not slow by the same factor.
    So a single round, however its timings are bracketed, can divide a
    fast timing by a slow rate; the median over rounds does not.
    """
    rates = [_scalar_rate(best_of=3)]
    seconds, work = [], []
    for _ in range(ROUNDS):
        seconds.append(measure())
        rates.append(_scalar_rate(best_of=3))
        work.append(seconds[-1] * (rates[-2] + rates[-1]) / 2.0)
    return statistics.median(seconds), statistics.median(work)


def measure_calibration() -> Dict[str, Any]:
    return {"scalar_solves_per_sec": round(_scalar_rate(), 1)}


def measure_solver() -> Dict[str, Any]:
    """Scalar vs vectorized solves/sec on the fig-1 sweep grid.

    The speedup is the median over :data:`ROUNDS` rounds of one scalar
    and one vectorized pass each: pure-Python and numpy-bound passes
    slow by different factors when the host does, so timing each side
    in its own block lets the ratio follow host speed (see
    :func:`_rounds`).
    """
    from repro.core import memo, vectorized

    pairs = _fig1_grid()
    total = sum(len(queries) for _, queries in pairs)
    scalar, batch = [], []
    with memo.disabled():
        # Warm numpy (BLAS/eigvals init) outside the timed region.
        vectorized.solve_batch(pairs[0][0], pairs[0][1][:32])
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for model, queries in pairs:
                for query in queries:
                    model.solve_point(*query)
            scalar.append(time.perf_counter() - start)
            start = time.perf_counter()
            for model, queries in pairs:
                vectorized.solve_batch(model, queries)
            batch.append(time.perf_counter() - start)

    return {
        "grid_points": total,
        "scalar_solves_per_sec": round(total / statistics.median(scalar), 1),
        "vectorized_solves_per_sec":
            round(total / statistics.median(batch), 1),
        "speedup": round(statistics.median(
            s / b for s, b in zip(scalar, batch)), 3),
    }


def _sweep_seconds(experiment_id: str) -> float:
    """Serial engine time of one id: one pass, or for sub-millisecond
    sweeps (fig9), which drown in scheduler noise, the best of as many
    passes as fit in 0.1 s."""
    from repro.core import memo
    from repro.experiments.engine import SweepEngine

    elapsed = math.inf
    spent = 0.0
    repeats = 0
    while repeats < 1 or (spent < 0.1 and repeats < 1000):
        memo.clear_cache()
        start = time.perf_counter()
        SweepEngine(max_workers=1).run([experiment_id])
        once = time.perf_counter() - start
        elapsed = min(elapsed, once)
        spent += once
        repeats += 1
    return elapsed


def measure_sweeps() -> Dict[str, Any]:
    """Wall time of representative experiment ids, serial engine path.

    ``normalized_work`` is seconds multiplied by the calibration solve
    rate — roughly "how many calibration solves this sweep is worth" —
    which is what the gate compares across machines.  The rate is
    sampled immediately before and after *each* round of each sweep
    (not once per artifact; see :func:`_rounds`).
    """
    section: Dict[str, Any] = {}
    for experiment_id in ("fig1", "fig9", "ext-validation"):
        seconds, work = _rounds(lambda: _sweep_seconds(experiment_id))
        section[experiment_id] = {
            "seconds": round(seconds, 4),
            "normalized_work": round(work, 1),
        }
    return section


def measure_service() -> Dict[str, Any]:
    """Closed-loop throughput/p99 — the PR-2 load harness shape."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.core import memo
    from repro.service.app import ServiceConfig, start_service

    threads = 8
    per_thread = 25
    distinct = 10

    memo.clear_cache()
    handle = start_service(
        ServiceConfig(workers=threads, cache_ttl=300.0), port=0
    )
    try:
        client = handle.client()
        bodies = [
            {"ceas": float(32 * (1 + i % distinct)),
             "alpha": 0.5, "budget": 1.0}
            for i in range(per_thread)
        ]

        def worker(_):
            for body in bodies:
                status, _ = client.solve_raw(body)
                if status != 200:
                    raise RuntimeError(f"solve returned {status}")

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, range(threads)))
        elapsed = time.perf_counter() - start
        total = threads * per_thread
        p99 = handle.service.request_latency.quantile(
            0.99, route="/v1/solve"
        )
        return {
            "requests": total,
            "throughput_rps": round(total / elapsed, 1),
            "p99_seconds": round(p99, 6) if p99 is not None else None,
        }
    finally:
        handle.drain_and_stop()


def measure_powerlaw() -> Dict[str, Any]:
    """Batch vs scalar miss-rate evaluation throughput."""
    from repro.core.powerlaw import PowerLawMissModel

    model = PowerLawMissModel(alpha=0.48, baseline_miss_rate=0.04,
                              baseline_cache_size=1024.0)
    count = 200_000
    grid = [1.0 + 0.37 * i for i in range(count)]

    # Warm-up: both code paths once, outside the timed regions.
    model.miss_rate_batch(grid[:1000])
    for size in grid[:1000]:
        model.miss_rate(size)

    # Medians over rounds of one pass each, as in measure_solver.
    scalar, batch = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for size in grid:
            model.miss_rate(size)
        scalar.append(time.perf_counter() - start)
        start = time.perf_counter()
        model.miss_rate_batch(grid)
        batch.append(time.perf_counter() - start)
    return {
        "points": count,
        "scalar_rates_per_sec": round(count / statistics.median(scalar), 1),
        "batch_rates_per_sec": round(count / statistics.median(batch), 1),
        "speedup": round(statistics.median(
            s / b for s, b in zip(scalar, batch)), 3),
    }


def measure_optimize() -> Dict[str, Any]:
    """Exhaustive design-space search throughput (points evaluated/sec).

    A fixed sub-space of the optimizer's technique grid (compression
    ratios x DRAM densities x unused-data filtering) solved end to end
    — effect construction, vectorized batch solves, per-point integer
    re-evaluation and Pareto pruning — so the rate covers the whole
    ``/v1/optimize`` hot path, not just the kernel.  The gated
    ``normalized_rate`` divides it by the calibration rate sampled
    around the search, as ``sweeps`` does, so that it compares across
    hosts and host-speed drift.
    """
    from repro.core import memo
    from repro.optimize import OptimizeParams, SearchSpace, run_search

    space = SearchSpace.build({
        "stacked_layers": [0],
        "line_unused": [0.0],
        "core_area_fraction": [1.0],
        "sharing_fraction": [0.0, 0.2, 0.5],
    })
    params = OptimizeParams(
        space=space, ceas=256.0, budget=4.0, alpha=0.5,
        strategy="exhaustive",
    )
    memo.clear_cache()
    artifact = run_search(params)  # warm-up: imports, numpy init

    def search_seconds() -> float:
        elapsed = math.inf
        for _ in range(3):  # best-of-3: a CPU-steal burst mid-search halves the rate
            memo.clear_cache()
            start = time.perf_counter()
            run_search(params)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    seconds, work = _rounds(search_seconds)
    points = artifact["evaluated"]
    return {
        "points": points,
        "seconds": round(seconds, 4),
        "points_per_sec": round(points / seconds, 1),
        "normalized_rate": round(points / work, 4),
        "frontier_size": artifact["frontier_size"],
    }


def measure_traces() -> Dict[str, Any]:
    """Trace-simulation throughput (accesses profiled per second).

    One ``powerlaw`` unit through the whole pipeline — synthesis,
    stack-distance profiling, miss-curve evaluation, power-law and
    Yavits fits — so the rate covers the ``/v1/traces`` hot path, not
    just the profiler inner loop.  The gated ``normalized_rate`` divides
    it by the calibration rate sampled around the runs.
    """
    from repro.traces import TraceParams, run_trace

    accesses = 60_000
    params = TraceParams.create(
        source="powerlaw", units=[0.48], accesses=accesses,
        working_set_lines=1 << 13,
    )
    artifact = run_trace(params)  # warm-up: imports, numpy init

    def trace_seconds() -> float:
        elapsed = math.inf
        for _ in range(3):  # best-of-3 shaves scheduler noise
            start = time.perf_counter()
            run_trace(params)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    seconds, work = _rounds(trace_seconds)
    unit = artifact["units"][0]
    return {
        "accesses": accesses,
        "capacities": len(params.line_counts),
        "seconds": round(seconds, 4),
        "accesses_per_sec": round(accesses / seconds, 1),
        "normalized_rate": round(accesses / work, 4),
        "fitted_alpha": round(unit["yavits_fit"]["alpha"], 4),
    }


def measure_scaleout() -> Dict[str, Any]:
    """Pre-fork serving and worker-fleet scaling, measured honestly.

    Both halves boot real subprocesses — ``serve --processes N``
    behind one port, and ``repro.jobs.worker --processes N`` racing
    over one job store — and compare them against their single-process
    shapes on the same work.  The gated ratios (``serve.throughput_scale``,
    ``fleet.speedup``) are bounded by the machine's core count, which
    is why ``cpu_count`` is recorded alongside them: a 1-core host
    pins both near 1.0 and the gate then only defends against the
    scale-out path getting *slower* than the single-process one.
    """
    import shutil
    import signal
    import socket
    import subprocess
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.jobs.executor import chunk_count
    from repro.jobs.spec import JobSpec
    from repro.jobs.store import SUCCEEDED, JobStore
    from repro.service.client import ServiceClient

    cpu_count = os.cpu_count() or 1
    processes = 4
    threads = 8
    per_thread = 40
    distinct = 10

    def serve_throughput(n: int) -> float:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        base = tempfile.mkdtemp(prefix="bench-scaleout-")
        command = [sys.executable, "-m", "repro", "serve",
                   "--port", str(port), "--processes", str(n),
                   "--workers", "4", "--job-workers", "1",
                   "--state-dir", os.path.join(base, "jobs")]
        server = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.STDOUT)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=30.0)
            client.wait_until_ready(timeout=30.0)
            bodies = [
                {"ceas": float(32 * (1 + i % distinct)),
                 "alpha": 0.5, "budget": 1.0}
                for i in range(per_thread)
            ]

            def worker(_):
                for body in bodies:
                    status, _ = client.solve_raw(body)
                    if status != 200:
                        raise RuntimeError(f"solve returned {status}")

            worker(0)  # warm every child's import/solve path a bit
            # Best-of-2 against the same booted group: subprocess
            # scheduling noise hits both sides of the gated ratio.
            elapsed = math.inf
            for _ in range(2):
                start = time.perf_counter()
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    list(pool.map(worker, range(threads)))
                elapsed = min(elapsed, time.perf_counter() - start)
            return threads * per_thread / elapsed
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
            shutil.rmtree(base, ignore_errors=True)

    sweep = JobSpec.sweep(
        ceas=tuple(16.0 + 8.0 * i for i in range(10)),
        budgets=(1.0, 2.0, 4.0), alpha=0.5, chunk_size=5,
    )
    backlog = 4 * processes

    def fleet_drain(n: int) -> float:
        state_dir = tempfile.mkdtemp(prefix="bench-fleet-")
        try:
            store = JobStore(state_dir)
            for index in range(backlog):
                store.submit(sweep, chunks_total=chunk_count(sweep),
                             job_id=f"bench-{index}")
            start = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-m", "repro.jobs.worker",
                 "--state-dir", state_dir, "--processes", str(n),
                 "--once", "--poll-interval", "0.02"],
                capture_output=True, text=True, timeout=600,
            )
            elapsed = time.perf_counter() - start
            if result.returncode != 0:
                raise RuntimeError("fleet drain failed:\n"
                                   + result.stdout + result.stderr)
            unfinished = [record.id for record in store.list_jobs()
                          if record.status != SUCCEEDED]
            if unfinished:
                raise RuntimeError(
                    f"fleet left jobs unfinished: {unfinished}")
            store.close()
            return elapsed
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    single_rps = serve_throughput(1)
    multi_rps = serve_throughput(processes)
    # Fleet drains are short and start a fresh interpreter each time,
    # so best-of-2 per worker count keeps the ratio out of the noise.
    single_drain = min(fleet_drain(1) for _ in range(2))
    multi_drain = min(fleet_drain(processes) for _ in range(2))
    return {
        "cpu_count": cpu_count,
        "processes": processes,
        "serve": {
            "requests": threads * per_thread,
            "single_rps": round(single_rps, 1),
            "multi_rps": round(multi_rps, 1),
            "throughput_scale": round(multi_rps / single_rps, 3),
        },
        "fleet": {
            "jobs": backlog,
            "single_seconds": round(single_drain, 4),
            "multi_seconds": round(multi_drain, 4),
            "speedup": round(single_drain / multi_drain, 3),
        },
    }


def run_trajectory() -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "calibration": measure_calibration(),
        "solver": measure_solver(),
        "sweeps": measure_sweeps(),
        "service": measure_service(),
        "powerlaw": measure_powerlaw(),
        "optimize": measure_optimize(),
        "traces": measure_traces(),
        "scaleout": measure_scaleout(),
    }


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------

#: (path, direction, threshold scale) — gated metrics.  ``higher``
#: metrics fail when the new value drops below
#: ``baseline * (1 - scale * threshold)``; ``lower`` metrics fail when
#: it grows above ``baseline * (1 + scale * threshold)``.  Wall-time
#: metrics (normalized_work) use 1.5x the threshold; speedup ratios
#: get double the allowance because both their numerator and
#: denominator carry timing noise.  Raw seconds and p99 are
#: deliberately ungated: they vary with machine speed, and
#: normalized_work / the speedups cover the same regressions.
GATED_METRICS: Tuple[Tuple[Tuple[str, ...], str, float], ...] = (
    # fig9 is measured but NOT gated: the sweep is sub-millisecond,
    # and its best-case floor shifts with how warm the process is, so
    # gating it would gate on warm-up, not the code.
    # Sweep wall-times get 1.5x: normalized_work divides one noisy
    # timing by another (the bracketing calibration), and on shared
    # hosts the residual after that cancellation still runs ~10% each
    # side.
    (("solver", "speedup"), "higher", 2.0),
    (("sweeps", "fig1", "normalized_work"), "lower", 1.5),
    (("sweeps", "ext-validation", "normalized_work"), "lower", 1.5),
    (("powerlaw", "speedup"), "higher", 2.0),
    (("optimize", "normalized_rate"), "higher", 2.0),
    (("traces", "normalized_rate"), "higher", 2.0),
    # Scale-out ratios compare two separately booted subprocess
    # groups, so they carry boot/scheduler noise on both sides of the
    # division — they get a wider allowance than in-process speedups.
    (("scaleout", "serve", "throughput_scale"), "higher", 3.0),
    (("scaleout", "fleet", "speedup"), "higher", 3.0),
)


def _dig(payload: Dict[str, Any], path: Tuple[str, ...]) -> Optional[float]:
    node: Any = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def compare_artifacts(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Regression messages (empty means the gate passes).

    Only metrics present in *both* artifacts are compared, so baselines
    recorded before a section existed do not block newer artifacts.
    """
    failures = []
    for path, direction, scale in GATED_METRICS:
        new_value = _dig(new, path)
        old_value = _dig(baseline, path)
        if new_value is None or old_value is None or old_value <= 0:
            continue
        name = ".".join(path)
        allowance = scale * threshold
        if direction == "higher" and \
                new_value < old_value * (1 - allowance):
            failures.append(
                f"{name} regressed: {new_value} < {old_value} "
                f"- {allowance:.0%}"
            )
        elif direction == "lower" and \
                new_value > old_value * (1 + allowance):
            failures.append(
                f"{name} regressed: {new_value} > {old_value} "
                f"+ {allowance:.0%}"
            )
    return failures


def run_gate(new_path: str, baseline_path: str, threshold: float) -> int:
    with open(new_path) as handle:
        new = json.load(handle)
    if not os.path.exists(baseline_path):
        print(f"perf gate skipped: no baseline at {baseline_path} "
              f"(first run — commit the new artifact to create one)")
        return 0
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = compare_artifacts(new, baseline, threshold)
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} regression(s) "
              f"vs {baseline_path}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"perf gate passed vs {baseline_path} "
          f"(threshold {threshold:.0%})")
    return 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="write the artifact here (default: stdout)")
    parser.add_argument("--gate", default=None, metavar="NEW",
                        help="gate mode: artifact to check")
    parser.add_argument("--against", default=None, metavar="BASELINE",
                        help="gate mode: committed baseline artifact")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="gate failure threshold (default 0.15)")
    args = parser.parse_args(argv)

    if args.gate or args.against:
        if not (args.gate and args.against):
            parser.error("--gate and --against must be used together")
        return run_gate(args.gate, args.against, args.threshold)

    artifact = run_trajectory()
    text = json.dumps(artifact, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
        solver = artifact["solver"]
        if "speedup" in solver:
            print(f"solver speedup: {solver['speedup']}x "
                  f"({solver['scalar_solves_per_sec']} -> "
                  f"{solver['vectorized_solves_per_sec']} solves/s)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
