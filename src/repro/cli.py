"""Command-line interface.

Three modes:

* **experiment mode** — regenerate a paper artifact::

      bandwidth-wall list                 # available experiment ids
      bandwidth-wall fig2                 # print one figure's data
      bandwidth-wall all                  # run everything
      python -m repro fig16               # module form

* **scenario mode** — solve a custom design question::

      bandwidth-wall solve --ceas 64 --alpha 0.45 --budget 1.5 \\
          --technique DRAM=8 --technique CC/LC=2 --technique SmCl=0.4

  prints the supportable core count, die split and traffic
  decomposition for the given configuration.

* **serving mode** — run the model as a long-lived HTTP/JSON API::

      bandwidth-wall serve --port 8100 --workers 8 --state-dir .jobs

  exposes ``/v1/solve``, ``/v1/sweep``, ``/v1/experiments``,
  ``/v1/jobs``, ``/healthz`` and Prometheus ``/metrics`` (see
  docs/SERVICE.md).

* **jobs mode** — durable background jobs against a running service::

      bandwidth-wall jobs submit fig2 fig3 table2
      bandwidth-wall jobs submit            # the whole registry
      bandwidth-wall jobs status            # list jobs
      bandwidth-wall jobs watch <id>        # poll until terminal
      bandwidth-wall jobs cancel <id>

  (see docs/JOBS.md for checkpoint/resume and retry semantics).

Every experiment prints the rows/series the paper reports plus the
paper's checkpoint values for comparison.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Tuple

from .core.scenario import ScenarioRequest, render_scenario, solve_scenario
from .experiments import experiment_ids, print_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandwidth-wall",
        description="Reproduce 'Scaling the Bandwidth Wall' (ISCA 2009) "
                    "or solve custom scaling scenarios.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig2, table2, ext-roadmap), 'list', "
             "'all', 'solve', or 'serve'",
    )
    parser.add_argument("--ceas", type=float, default=32.0,
                        help="[solve] die size in CEAs (default 32)")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="[solve] workload alpha (default 0.5)")
    parser.add_argument("--budget", type=float, default=1.0,
                        help="[solve] traffic budget B (default 1.0)")
    parser.add_argument(
        "--technique", action="append", default=[], metavar="LABEL[=VALUE]",
        help="[solve] add a technique, e.g. DRAM=8, CC/LC=2, SmCl=0.4, "
             "3D, SmCo=40 (repeatable)",
    )
    parser.add_argument(
        "--out", default="reproduction_report.md",
        help="[report] output path (default reproduction_report.md)",
    )
    parser.add_argument(
        "--with-simulations", action="store_true",
        help="[report] include the simulation-backed figures (1 and 14)",
    )
    parser.add_argument(
        "--parallel", nargs="?", type=int, const=0, default=None,
        metavar="N",
        help="[all] fan experiments out over N worker processes "
             "(bare --parallel auto-detects; output is byte-identical "
             "to serial mode)",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="report per-experiment wall time",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="[serve] bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8100,
                        help="[serve] TCP port, 0 for ephemeral "
                             "(default 8100)")
    parser.add_argument("--workers", type=int, default=8,
                        help="[serve] max concurrently-handled requests "
                             "per process (default 8)")
    parser.add_argument("--processes", type=int, default=1,
                        help="[serve] pre-forked server processes "
                             "sharing the port and job store; 1 keeps "
                             "the single-process server (default 1)")
    # Accepted so older command lines keep working; _serve says it is
    # ignored.
    parser.add_argument("--shared-cache-dir", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache-ttl", type=float, default=300.0,
                        help="[serve] response cache TTL in seconds, "
                             "0 disables storage (default 300)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="[serve] response cache LRU bound "
                             "(default 1024)")
    parser.add_argument("--state-dir", default=None,
                        help="[serve] durable job-store directory "
                             "(default: a temporary one per instance)")
    parser.add_argument("--job-workers", type=int, default=2,
                        help="[serve] in-process background-job workers; "
                             "0 leaves jobs to external workers "
                             "(default 2)")
    parser.add_argument("--admission-capacity", type=int, default=4,
                        help="[serve] concurrent expensive requests "
                             "(sweeps, experiment renders) before "
                             "queueing/shedding with 429 (default 4)")
    parser.add_argument("--admission-queue", type=int, default=8,
                        help="[serve] expensive requests allowed to "
                             "wait for a slot (default 8)")
    parser.add_argument("--default-deadline-ms", type=float, default=None,
                        help="[serve] deadline applied to requests that "
                             "send no X-Request-Deadline-Ms header "
                             "(default: none)")
    parser.add_argument("--fault-profile", default=None,
                        help="[serve] chaos mode: builtin fault-profile "
                             "name or JSON profile path (also honours "
                             "the REPRO_FAULT_PROFILE env var); see "
                             "docs/RESILIENCE.md")
    return parser


def _solve(args: argparse.Namespace) -> int:
    outcome = solve_scenario(ScenarioRequest(
        ceas=args.ceas,
        alpha=args.alpha,
        budget=args.budget,
        techniques=tuple(args.technique),
    ))
    sys.stdout.write(render_scenario(outcome))
    return 0


def _serve(args: argparse.Namespace) -> int:
    from .service.app import ServiceConfig, serve

    if args.shared_cache_dir is not None:
        print("--shared-cache-dir is ignored: each server process keeps "
              "its own caches", file=sys.stderr)
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            processes=args.processes,
            cache_ttl=args.cache_ttl,
            cache_maxsize=args.cache_size,
            state_dir=args.state_dir,
            job_workers=args.job_workers,
            admission_capacity=args.admission_capacity,
            admission_queue=args.admission_queue,
            default_deadline_ms=args.default_deadline_ms,
            fault_profile=args.fault_profile,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    return serve(config)


def _jobs_parser() -> argparse.ArgumentParser:
    # Connection flags ride on every subcommand (not the top parser),
    # so `jobs submit --port 8200` parses the way people type it.
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1",
                            help="service address (default 127.0.0.1)")
    connection.add_argument("--port", type=int, default=8100,
                            help="service port (default 8100)")
    connection.add_argument("--timeout", type=float, default=30.0,
                            help="per-request timeout in seconds "
                                 "(default 30)")
    parser = argparse.ArgumentParser(
        prog="bandwidth-wall jobs",
        description="Durable background jobs against a running "
                    "bandwidth-wall service (see docs/JOBS.md).",
    )
    commands = parser.add_subparsers(dest="command")

    submit = commands.add_parser(
        "submit", parents=[connection],
        help="submit an experiments job (no ids = every registry id)")
    submit.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids (e.g. fig2 table2 ext-het); "
                             "empty runs the whole registry")
    submit.add_argument("--chunk-size", type=int, default=None,
                        help="work items per checkpoint "
                             "(default: 1 experiment)")
    submit.add_argument("--max-attempts", type=int, default=None,
                        help="execution attempts before the job fails "
                             "(default 3)")
    submit.add_argument("--watch", action="store_true",
                        help="poll the submitted job until it finishes")
    submit.add_argument("--interval", type=float, default=0.5,
                        help="[--watch] poll interval seconds "
                             "(default 0.5)")

    status = commands.add_parser(
        "status", parents=[connection],
        help="show one job, or list recent jobs")
    status.add_argument("id", nargs="?", default=None,
                        help="job id (omit to list)")
    status.add_argument("--filter", dest="status_filter", default=None,
                        metavar="STATUS",
                        help="[list] only queued/running/succeeded/"
                             "failed/cancelled jobs")

    watch = commands.add_parser(
        "watch", parents=[connection],
        help="poll a job until it reaches a terminal status")
    watch.add_argument("id", help="job id")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="poll interval seconds (default 0.5)")
    watch.add_argument("--for", dest="wait_timeout", type=float,
                       default=600.0, metavar="SECONDS",
                       help="give up after this long (default 600)")

    cancel = commands.add_parser("cancel", parents=[connection],
                                 help="cancel a job")
    cancel.add_argument("id", help="job id")
    return parser


def _job_line(payload: dict) -> str:
    progress = payload["progress"]
    fraction = progress["fraction"]
    line = (f"{payload['id']}  {payload['kind']:<12} "
            f"{payload['status']:<10} "
            f"{progress['chunks_done']}/{progress['chunks_total']} chunks "
            f"({fraction:.0%})")
    if payload.get("retries"):
        line += f"  retries={payload['retries']}"
    return line


def _watch_job(client, job_id: str, interval: float,
               timeout: float) -> Tuple[int, dict]:
    """Poll a job until it ends; returns (exit code, last payload)."""
    import time as _time

    deadline = _time.monotonic() + timeout
    last = None
    while True:
        payload = client.job(job_id)
        line = _job_line(payload)
        if line != last:
            print(line, flush=True)
            last = line
        if payload["status"] in ("succeeded", "failed", "cancelled"):
            if payload["status"] == "failed" and payload.get("error"):
                print(payload["error"], file=sys.stderr)
            return (0 if payload["status"] == "succeeded" else 3), payload
        if _time.monotonic() >= deadline:
            print(f"gave up after {timeout:g}s; job {job_id} is still "
                  f"{payload['status']}", file=sys.stderr)
            return 3, payload
        _time.sleep(interval)


def _submit_job(args: argparse.Namespace, body: dict,
                show_result: Optional[Callable[[dict], None]] = None
                ) -> int:
    """POST a kind-tagged job body to ``/v1/jobs``; with ``--watch``,
    poll it to the end and show the result the last poll carried."""
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        payload = client.submit_job(
            {name: value for name, value in body.items()
             if value is not None})
        print(_job_line(payload))
        if not args.watch:
            return 0
        code, final = _watch_job(client, payload["id"], args.interval,
                                 timeout=600.0)
        if code == 0 and show_result is not None:
            show_result(final["result"])
        return code
    except ServiceError as error:
        print(error, file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach service at {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2


def _jobs_main(argv: List[str]) -> int:
    from .service.client import ServiceClient, ServiceError

    parser = _jobs_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "submit":
        return _submit_job(args, {
            "kind": "experiments", "ids": args.ids or None,
            "chunk_size": args.chunk_size,
            "max_attempts": args.max_attempts,
        })
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.command == "status":
            if args.id is None:
                listing = client.jobs(status=args.status_filter)
                for job in listing["jobs"]:
                    print(_job_line(job))
                print(f"{listing['count']} job(s)")
                return 0
            print(_job_line(client.job(args.id)))
            return 0
        if args.command == "watch":
            return _watch_job(client, args.id, args.interval,
                              args.wait_timeout)[0]
        payload = client.cancel_job(args.id)
        print(_job_line(payload))
        return 0
    except ServiceError as error:
        print(error, file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach service at {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2


def _optimize_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandwidth-wall optimize",
        description="Pareto search over the technique design space "
                    "(see docs/OPTIMIZER.md).  Runs in-process by "
                    "default; --submit posts to a running service.",
    )
    parser.add_argument("--ceas", type=float, default=256.0,
                        help="die size in CEAs (default 256 = 16x "
                             "the paper baseline)")
    parser.add_argument("--budget", type=float, default=1.0,
                        help="relative traffic budget B*t (default 1)")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="workload cache sensitivity (default 0.5)")
    parser.add_argument("--strategy", default="auto",
                        choices=["auto", "exhaustive", "evolutionary"],
                        help="search strategy (auto: exhaustive for "
                             "small spaces)")
    parser.add_argument("--seed", type=int, default=0,
                        help="evolutionary RNG seed (default 0)")
    parser.add_argument("--generations", type=int, default=None,
                        help="evolutionary generations (default 12)")
    parser.add_argument("--population", type=int, default=None,
                        help="evolutionary population size (default 32)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="configs per exhaustive chunk")
    parser.add_argument("--dimension", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="override one dimension's value list "
                             "(repeatable); a single value freezes it")
    parser.add_argument("--json", action="store_true",
                        help="print the full artifact as JSON")
    parser.add_argument("--top", type=int, default=20,
                        help="frontier rows to print (default 20)")
    parser.add_argument("--submit", action="store_true",
                        help="POST to a running service instead of "
                             "solving locally")
    parser.add_argument("--host", default="127.0.0.1",
                        help="[--submit] service address")
    parser.add_argument("--port", type=int, default=8100,
                        help="[--submit] service port")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="[--submit] per-request timeout seconds")
    parser.add_argument("--watch", action="store_true",
                        help="[--submit] poll the job until it finishes")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="[--watch] poll interval seconds")
    return parser


def _parse_dimension_overrides(specs: List[str]) -> dict:
    overrides = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        if not values:
            raise ValueError(
                f"bad --dimension {spec!r}; expected NAME=V1,V2,..."
            )
        overrides[name.strip()] = [float(v) for v in values.split(",")]
    return overrides


def _print_frontier(artifact: dict, top: int) -> None:
    print(f"strategy={artifact['strategy']}  "
          f"evaluated={artifact['evaluated']}  "
          f"skipped={artifact['skipped']}  "
          f"frontier={artifact['frontier_size']}")
    print(f"{'cores':>6}  {'cache%':>7}  {'traffic':>8}  techniques")
    for row in artifact["frontier"][:top]:
        techniques = " ".join(row["techniques"]) or "(baseline)"
        flags = "  [area-limited]" if row["area_limited"] else ""
        print(f"{row['cores']:>6}  {row['cache_fraction']:>7.2%}  "
              f"{row['traffic']:>8.3f}  {techniques}{flags}")
    hidden = artifact["frontier_size"] - min(top,
                                             artifact["frontier_size"])
    if hidden > 0:
        print(f"... {hidden} more row(s); use --top or --json")


def _traces_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandwidth-wall traces",
        description="Trace-driven cache simulation: synthesize (or "
                    "read) an access trace, measure its miss curve, "
                    "fit the power law plus a Yavits compulsory term "
                    "(see docs/TRACES.md).  Runs in-process by "
                    "default; --submit posts to a running service.",
    )
    parser.add_argument("source",
                        choices=["powerlaw", "sequential", "strided",
                                 "sharing", "file"],
                        help="trace source (file = read a "
                             "workloads.trace_io trace; CLI only)")
    parser.add_argument("units", nargs="*", metavar="UNIT",
                        help="source-specific units: alphas (powerlaw), "
                             "core counts (sharing), strides, or trace "
                             "paths (file); empty = source defaults")
    parser.add_argument("--accesses", type=int, default=None,
                        help="measured accesses per unit, per core for "
                             "sharing (default 100000)")
    parser.add_argument("--working-set", type=int, default=None,
                        metavar="LINES", dest="working_set_lines",
                        help="synthetic working-set size in cache lines "
                             "(default 16384)")
    parser.add_argument("--line-bytes", type=int, default=None,
                        help="cache line size in bytes (default 64)")
    parser.add_argument("--seed", type=int, default=None,
                        help="synthesis RNG seed (default 0)")
    parser.add_argument("--line-counts", default=None,
                        metavar="N1,N2,...",
                        help="capacities to evaluate, in lines "
                             "(default 16..8192, doubling)")
    parser.add_argument("--fit-min-lines", type=int, default=None,
                        help="smallest capacity the fits use")
    parser.add_argument("--fit-max-lines", type=int, default=None,
                        help="largest capacity the fits use "
                             "(default 2048; 0 = unbounded)")
    parser.add_argument("--associativity", type=int, default=None,
                        help="cross-check through a set-associative "
                             "cache with this many ways (default off)")
    parser.add_argument("--json", action="store_true",
                        help="print the full artifact as JSON")
    parser.add_argument("--submit", action="store_true",
                        help="POST to a running service instead of "
                             "simulating locally")
    parser.add_argument("--host", default="127.0.0.1",
                        help="[--submit] service address")
    parser.add_argument("--port", type=int, default=8100,
                        help="[--submit] service port")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="[--submit] per-request timeout seconds")
    parser.add_argument("--watch", action="store_true",
                        help="[--submit] poll the job until it finishes")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="[--watch] poll interval seconds")
    return parser


def _parse_trace_units(source: str, units: List[str]):
    if not units:
        return None
    if source == "powerlaw":
        return [float(unit) for unit in units]
    if source in ("sequential", "strided", "sharing"):
        return [int(unit) for unit in units]
    return list(units)


def _print_trace_artifact(artifact: dict) -> None:
    print(f"source={artifact['source']}  units={artifact['count']}")
    print(f"{'unit':<16} {'alpha':>7}  {'m_c':>8}  {'R^2':>6}  "
          f"{'cold':>8}  {'footprint':>9}")
    for unit in artifact["units"]:
        fit = unit["yavits_fit"]
        if "error" in fit:
            print(f"{unit['unit']:<16} fit failed: {fit['error']}")
            continue
        line = (f"{unit['unit']:<16} {fit['alpha']:>7.4f}  "
                f"{fit['compulsory']:>8.5f}  {fit['r_squared']:>6.3f}  "
                f"{unit['cold_misses']:>8}  {unit['distinct_lines']:>9}")
        check = unit.get("cross_check")
        if check is not None:
            line += (f"  [{check['associativity']}-way "
                     f"delta {check['max_delta']:.4f}]")
        print(line)
    alphas = artifact.get("alpha_range")
    if alphas:
        print(f"fitted alpha range: {alphas['min']:.4f} .. "
              f"{alphas['max']:.4f}")


def _traces_main(argv: List[str]) -> int:
    parser = _traces_parser()
    args = parser.parse_args(argv)
    try:
        units = _parse_trace_units(args.source, args.units)
        line_counts = ([int(v) for v in args.line_counts.split(",")]
                       if args.line_counts else None)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    if args.submit:
        return _submit_job(args, {
            "kind": "trace", "source": args.source, "units": units,
            "accesses": args.accesses,
            "working_set_lines": args.working_set_lines,
            "line_bytes": args.line_bytes, "seed": args.seed,
            "line_counts": line_counts,
            "fit_min_lines": args.fit_min_lines,
            "fit_max_lines": args.fit_max_lines,
            "associativity": args.associativity,
        }, _print_trace_artifact)

    from .traces import TraceParams, run_trace
    from .traces.pipeline import DEFAULT_TRACE_ACCESSES

    try:
        params = TraceParams.create(
            source=args.source, units=units,
            accesses=(args.accesses if args.accesses is not None
                      else DEFAULT_TRACE_ACCESSES),
            working_set_lines=(args.working_set_lines
                               if args.working_set_lines is not None
                               else 1 << 14),
            line_bytes=args.line_bytes or 64,
            seed=args.seed or 0,
            line_counts=line_counts,
            fit_min_lines=args.fit_min_lines or 0,
            fit_max_lines=(args.fit_max_lines
                           if args.fit_max_lines is not None else 2048),
            associativity=args.associativity or 0,
        )
        artifact = run_trace(params)
    except (ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.json:
        import json as _json

        print(_json.dumps(artifact, indent=1))
        return 0
    _print_trace_artifact(artifact)
    return 0


def _optimize_main(argv: List[str]) -> int:
    parser = _optimize_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_dimension_overrides(args.dimension)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    search = {"ceas": args.ceas, "budget": args.budget,
              "alpha": args.alpha, "strategy": args.strategy,
              "seed": args.seed, "generations": args.generations,
              "population": args.population, "space": overrides or None}
    if args.submit:
        return _submit_job(args, {
            "kind": "optimize", "chunk_size": args.chunk_size, **search,
        }, lambda artifact: _print_frontier(artifact, args.top))

    from dataclasses import replace

    from .optimize import OptimizeParams, run_search

    try:
        params = OptimizeParams.create(**{
            name: value for name, value in search.items()
            if value is not None})
        if args.chunk_size:
            params = replace(params, chunk_size=args.chunk_size)
        artifact = run_search(params)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if args.json:
        import json as _json

        print(_json.dumps(artifact, indent=1))
        return 0
    _print_frontier(artifact, args.top)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].lower() == "jobs":
        return _jobs_main(argv[1:])
    if argv and argv[0].lower() == "optimize":
        return _optimize_main(argv[1:])
    if argv and argv[0].lower() == "traces":
        return _traces_main(argv[1:])
    args = _build_parser().parse_args(argv)
    target = args.experiment.lower()

    if target == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    if target == "solve":
        try:
            return _solve(args)
        except (argparse.ArgumentTypeError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2

    if target == "serve":
        return _serve(args)

    if target == "report":
        from .analysis.report import write_report

        path = write_report(
            args.out, include_simulations=args.with_simulations
        )
        print(f"wrote {path}")
        return 0

    if target == "all":
        return _run_all(args)

    try:
        if args.timing:
            started = time.perf_counter()
            print_experiment(target)
            elapsed = time.perf_counter() - started
            print(f"\n[{target}: {elapsed:.2f}s]")
        else:
            print_experiment(target)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Run every experiment, optionally fanned out over worker processes.

    Experiment output is printed in registry order whatever the worker
    scheduling, so serial and parallel runs emit identical bytes (the
    --timing summary, which reports wall times, is appended after).
    """
    from .experiments.engine import SweepEngine

    if args.parallel is None:
        engine = SweepEngine(max_workers=1)
    elif args.parallel == 0:
        engine = SweepEngine(max_workers=None)
    else:
        engine = SweepEngine(max_workers=args.parallel)

    def emit(run) -> None:
        print(f"\n{'=' * 72}\n{run.experiment_id}\n{'=' * 72}")
        print(run.report, end="")

    sweep = engine.run(reports=True, on_run=emit)

    if args.timing:
        mode = (f"parallel, {sweep.max_workers} workers" if sweep.parallel
                else "serial")
        print(f"\n{'-' * 72}\ntiming ({mode}):")
        for run in sweep.runs:
            print(f"  {run.experiment_id:<16} {run.elapsed:>8.2f}s")
        print(f"  {'total wall':<16} {sweep.elapsed:>8.2f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
