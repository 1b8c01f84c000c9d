"""Steadiness: run one workload N times and print each metric's spread.

    python3 wallbench/steady.py --workload serve --runs 10 [--seed 1]
        [--seconds S] [--json OUT]

Run from the root of a source checkout.  Run ``i`` uses seed
``seed + i``; every run is untraced.  For every end-to-end metric it
prints the median, the quartiles, the range and the interquartile range
as a share of the median next to the metric's bound in
``BENCHMARK.json`` (a bound holds when that share stays within it),
then the same for the metrics before host-speed correction, after a
line per run with its failed operations, failed launches and length.
Bounds are set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bounds() -> dict:
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {metric["name"]: metric["bound"]
            for metric in spec.get("end_to_end", [])}


def spread(values):
    """Median, quartiles and the quartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def uncorrected(stderr: str) -> dict:
    """The ``uncorrected {...}`` line ``run.py`` writes on stderr."""
    for line in stderr.splitlines():
        if line.startswith("uncorrected "):
            return json.loads(line[len("uncorrected "):])
    raise ValueError("run.py printed no uncorrected metrics")


def table(runs, limits) -> None:
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
    for name in runs[0]:
        values = [run[name] for run in runs]
        median, q1, q3, share = spread(values)
        bound = limits.get(name)
        print(f"{name:36} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{min(values):12.5g} {max(values):12.5g} {share:8.3f} "
              f"{'' if bound is None else bound:>6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None,
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as handle:
            seconds = json.load(handle)["run_seconds"]
    results = []
    for run in range(args.runs):
        started = time.monotonic()
        completed = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(args.seed + run),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        result["uncorrected"] = uncorrected(completed.stderr)
        results.append(result)
        print(f"run {run}: seed {args.seed + run} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} failed launches "
              f"{completed.stderr.count('failed, retrying')} "
              f"{time.monotonic() - started:.0f} s", flush=True)
    limits = bounds()
    table([{name: metric["value"]
            for name, metric in r["metrics"].items()} for r in results],
          limits)
    print("before host-speed correction:")
    table([r["uncorrected"] for r in results], limits)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
