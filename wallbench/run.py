"""Benchmark: the bandwidth-wall reproduction end to end.

    python3 wallbench/run.py --workload reproduce|serve|jobs \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is ``src/repro``).
Each workload drives the program only through its public entry points:
the experiment engine, ``python -m repro serve`` and
``repro.service.client.ServiceClient``, from one process with at most
two client threads in a closed loop.  Every output is checked by
``oracle.py``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from
a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Program launches per run whose set-up time is measured (median).
SETUP_LAUNCHES = 5
#: Client threads (and connections) in the closed loop: nproc = 2.
CLIENTS = 2
#: Rounds each half of a traced serve/jobs run measures.
TRACED_ROUNDS = 4
#: Seconds one timed round takes on the reference host, averaged over
#: a run's rounds, per workload.  A run of S seconds does
#: round(S / this) rounds (at least one), a count fixed before it starts
#: whatever the host's speed, so every run does the same work: the
#: server's caches and shared tier grow round by round and later rounds
#: are slower, so a run that fit more rounds on a fast host would
#: measure a different state.  One ``reproduce`` round is the whole
#: registry and cannot be shortened.
ROUND_S = {"reproduce": 50.0, "serve": 2.2, "jobs": 1.75}

# serve mix, per round, in latency order: hot solves (30 %), distinct
# solves (40 %), hot sweeps (10 %), distinct sweeps (20 %).  The median
# falls in the middle of the distinct solves and the 90th percentile in
# the middle of the distinct sweeps, not on the edge between two kinds.
SOLVES, SWEEPS = 140, 60
HOT_SOLVES_PER_ROUND, HOT_SWEEPS_PER_ROUND = 60, 20
HOT_SOLVES, HOT_SWEEPS = 32, 6
SWEEP_CEAS, SWEEP_BUDGETS = 20, 15
EXACT_STACKS = ([], ["CC=2"], ["DRAM=8"], ["LC=2"], ["CC/LC=2"],
                ["CC=1.5", "LC=2"], ["DRAM=4", "LC=1.5"],
                ["DRAM=16", "CC=2"])
ALL_STACKS = EXACT_STACKS + (["3D"], ["Fltr=0.4"], ["SmCo=40"],
                             ["Sect=0.4"], ["SmCl=0.4"],
                             ["DRAM=8", "3D", "LC=2"])

# jobs mix, per round.  The kinds' turnarounds differ (experiments <
# optimize < sweep < trace).  With 20 % below the sweeps, 60 % sweeps
# and 20 % traces, the median falls in the middle of the sweep jobs and
# the 90th percentile in the middle of the trace jobs, not on the edge
# between two kinds, where it would jump from run to run.
JOBS_PER_ROUND = {"sweep": 6, "optimize": 1, "trace": 2, "experiments": 1}
JOB_SWEEP_SIDE = 30
TRACE_ACCESSES = 20_000
OPTIMIZE_CEAS = (32, 64, 128, 256)
POLL_S = 0.02
ANALYTIC_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "fig12", "fig13", "fig15",
                "fig16", "fig17", "table2")
OPTIMIZE_SPACE = {
    "cache_compression": [1.0, 1.25, 2.0, 3.5],
    "link_compression": [1.0, 1.25, 2.0, 3.5],
    "dram_density": [1.0, 4.0, 8.0, 16.0],
    "stacked_layers": [0.0, 1.0],
    "line_unused": [0.0, 0.1, 0.4, 0.8],
    "filter_unused": [0.0],
    "core_area_fraction": [1.0],
    "sharing_fraction": [0.0],
}


class Outcome:
    """Operations attempted and failed.  An operation fails when it
    raises or when its output fails a check; only a failed check makes
    the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.errors: List[str] = []
        #: Server launches that never answered (see ``start_server``).
        self.launch_failures = 0

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong.extend(problems[:2])

    def error(self, what: str, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(error).__name__}: {error}")

    @property
    def correct(self) -> bool:
        return not self.wrong


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------


class Workspace:
    """Scratch space for one run inside the checkout, removed at exit."""

    def __init__(self) -> None:
        self.path = os.path.join(ROOT, ".wallbench", f"run-{os.getpid()}")
        os.makedirs(os.path.join(self.path, "tmp"), exist_ok=True)
        self.count = 0

    def fresh(self, name: str) -> str:
        self.count += 1
        path = os.path.join(self.path, f"{name}-{self.count}")
        os.makedirs(path)
        return path

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["TMPDIR"] = os.path.join(self.path, "tmp")
        env.pop("REPRO_VECTORIZED", None)
        env.pop("REPRO_FAULT_PROFILE", None)
        return env

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def family(pid: int) -> List[int]:
    """``pid`` and its descendants, from ``/proc``."""
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                stack.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
        found.append(current)
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` and its descendants (VmHWM)."""
    total = 0.0
    for member in family(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except FileNotFoundError:
            continue
    return total


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class Server:
    """``python -m repro serve`` on an ephemeral port, until stopped."""

    def __init__(self, workspace: Workspace, args: List[str],
                 trace_dir: Optional[str] = None) -> None:
        from repro.service.client import ServiceClient

        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, os.path.join(BENCH_DIR, "program.py"),
                       "serve", trace_dir]
        command += ["--port", "0", *args]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=workspace.env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: List[str] = []
        port = self._port()
        self.client = ServiceClient("127.0.0.1", port, timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.request("GET", "/healthz")
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("server never answered /healthz:\n"
                                       + "".join(self.lines)
                                       + self.proc.stdout.read())
                time.sleep(0.005)
        self.setup_s = 0.0  # set by start_server
        threading.Thread(target=self._drain, daemon=True).start()

    def _port(self) -> int:
        for line in self.proc.stdout:
            self.lines.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.proc.wait()
        raise RuntimeError("server exited before listening:\n"
                           + "".join(self.lines))

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM and wait; then stop any child the server left behind
        (a supervisor signalled before it installs its handler dies at
        once and orphans its pre-forked children)."""
        if self.proc.poll() is None:
            children = family(self.proc.pid)[1:]
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 30
            while any(_alive(pid) for pid in children):
                if time.monotonic() > deadline:
                    for pid in children:
                        if _alive(pid):
                            os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)


#: Attempts per server launch.  `serve --processes 2` on a fresh shared
#: cache directory now and then loses a start-up race ("database is
#: locked" in one child, which aborts the group).  A failed launch is
#: retried only so that the run can finish.  It still shows: it is
#: reported on stderr, counted in ``Outcome.launch_failures`` (the
#: traced run's ``service.launch_failures``), and the time it took stays
#: in the ``setup_s`` of the launch that follows it.  It is not an
#: operation: it fails only now and then, so counting it in ``failed``
#: would make the failed share differ from run to run.
LAUNCH_ATTEMPTS = 3


def start_server(workspace: Workspace, make_args: Callable[[], List[str]],
                 outcome: Outcome, trace_dir: Optional[str] = None) -> Server:
    """A server that answers; its ``setup_s`` runs from the first
    attempt."""
    started = time.perf_counter()
    for attempt in range(1, LAUNCH_ATTEMPTS + 1):
        try:
            server = Server(workspace, make_args(), trace_dir)
        except RuntimeError as error:
            outcome.launch_failures += 1
            if attempt == LAUNCH_ATTEMPTS:
                raise
            print(f"server launch {attempt} failed, retrying: "
                  f"{str(error).strip().splitlines()[-1]}", file=sys.stderr)
            continue
        server.setup_s = time.perf_counter() - started
        return server
    raise AssertionError("unreachable")


def launch(corrector: hostspeed.Corrector,
           start: Callable[[], Any]) -> Tuple[Any, float]:
    """Start a program; returns it and its raw set-up time."""
    program, _, _ = corrector.segment(start)
    return program, program.setup_s


def launch_servers(workspace: Workspace, make_args: Callable[[], List[str]],
                   launches: int, corrector: hostspeed.Corrector,
                   outcome: Outcome) -> Tuple[Server, float]:
    """Launch ``launches`` times, keep the last; median raw set-up."""
    setups = []
    for count in range(launches):
        server, setup_s = launch(
            corrector, lambda: start_server(workspace, make_args, outcome))
        setups.append(setup_s)
        if count < launches - 1:
            server.stop()
    return server, statistics.median(setups)


# ----------------------------------------------------------------------
# Closed-loop rounds
# ----------------------------------------------------------------------


class Op:
    def __init__(self, name: str, kind: str, body: Any) -> None:
        self.name, self.kind, self.body = name, kind, body
        self.latency_ms = 0.0
        self.response: Any = None
        self.error: Optional[BaseException] = None
        self.polls = 0
        self.poll_offset = 0.0


_OP = threading.local()


def _tag_requests() -> None:
    """Traced runs: send the current op id with every HTTP request."""
    original = http.client.HTTPConnection.request

    def request(self, method, url, body=None, headers=None, **kwargs):
        headers = dict(headers or {})
        name = getattr(_OP, "name", None)
        if name is not None:
            headers[spans.OP_HEADER] = name
        return original(self, method, url, body, headers, **kwargs)
    http.client.HTTPConnection.request = request


def run_round(ops: List[Op], execute: Callable[[Op], Any]) -> None:
    """Closed loop: each of ``CLIENTS`` threads takes the next op once
    its previous one has completed."""
    queue = iter(ops)
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                op = next(queue, None)
            if op is None:
                return
            _OP.name = op.name
            started = time.perf_counter()
            try:
                op.response = execute(op)
            except Exception as error:  # noqa: BLE001 - counted as failed
                op.error = error
            op.latency_ms = 1000 * (time.perf_counter() - started)
            _OP.name = None

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(client) for _ in range(CLIENTS)]:
            future.result()


def timed_rounds(make_ops: Callable[[int], List[Op]],
                 execute: Callable[[Op], Any], check: Callable[[Op], list],
                 outcome: Outcome, rounds: int,
                 corrector: hostspeed.Corrector
                 ) -> Tuple[List[float], List[Op]]:
    """One untimed warm-up round, then ``rounds`` timed rounds, each a
    segment of ``corrector``.  Returns each timed round's raw wall time
    and every timed op."""
    walls: List[float] = []
    timed: List[Op] = []
    for index in range(rounds + 1):
        ops = make_ops(index)
        _, raw, _ = corrector.segment(lambda: run_round(ops, execute))
        for op in ops:
            if op.error is not None:
                outcome.error(op.name, op.error)
                continue
            try:
                outcome.record(check(op))
            except (KeyError, TypeError, ValueError) as error:
                outcome.record([f"{op.name}: malformed output "
                                f"({type(error).__name__}: {error})"])
        if index > 0:
            walls.append(raw)
            timed.extend(ops)
    return walls, timed


def rounds_for(args) -> int:
    return max(1, round(args.seconds / ROUND_S[args.workload]))


def end_to_end(setup_s: float, walls: List[float], rss: float,
               latencies_ms: List[float], factor: float) -> Dict[str, float]:
    """The end-to-end metrics, times scaled by ``factor``.  ``wall_s``
    is the whole fixed list of timed rounds: the rounds are not alike
    (see ``ROUND_S``), so their sum is steadier than any one of them."""
    return {"setup_s": setup_s * factor,
            "wall_s": sum(walls) * factor,
            "peak_rss_mb": rss,
            "op_p50_ms": statistics.median(latencies_ms) * factor,
            "op_p90_ms": statistics.quantiles(
                latencies_ms, n=10, method="inclusive")[-1] * factor}


def report_uncorrected(metrics: Dict[str, float]) -> None:
    """The end-to-end metrics before host-speed correction, on stderr;
    ``steady.py`` prints their spread beside the corrected ones."""
    print("uncorrected " + json.dumps(metrics), file=sys.stderr)


# ----------------------------------------------------------------------
# serve: /v1/solve and /v1/sweep against two pre-forked processes
# ----------------------------------------------------------------------


class ServeMix:
    """Seeded requests on a fixed plan: every round has the same number
    of hot and distinct requests of each kind, and cycles through the
    same technique stacks; the seed picks the numbers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.hot_solves = [self._solve(rng, i) for i in range(HOT_SOLVES)]
        self.hot_sweeps = [self._sweep(rng, i) for i in range(HOT_SWEEPS)]

    @staticmethod
    def _solve(rng: random.Random, index: int) -> Dict[str, Any]:
        return {"ceas": round(rng.uniform(20, 400), 2),
                "alpha": round(rng.uniform(0.3, 0.7), 3),
                "budget": round(rng.uniform(0.8, 3.0), 2),
                "techniques": list(ALL_STACKS[index % len(ALL_STACKS)])}

    @staticmethod
    def _sweep(rng: random.Random, index: int) -> Dict[str, Any]:
        start, step = rng.uniform(16, 64), rng.uniform(4, 16)
        low = rng.uniform(0.5, 1.0)
        return {"ceas": [round(start + i * step, 2)
                         for i in range(SWEEP_CEAS)],
                "budgets": [round(low + 0.15 * i, 3)
                            for i in range(SWEEP_BUDGETS)],
                "alpha": round(rng.uniform(0.3, 0.7), 3),
                "techniques": list(ALL_STACKS[index % len(ALL_STACKS)])}

    def round_ops(self, phase: str, index: int) -> List[Op]:
        rng = random.Random(f"{self.seed}:{phase}:{index}")
        hot_solves, hot_sweeps = HOT_SOLVES_PER_ROUND, HOT_SWEEPS_PER_ROUND
        start = rng.randrange(len(ALL_STACKS))
        bodies = (
            [("solve", self.hot_solves[(start + i) % HOT_SOLVES])
             for i in range(hot_solves)]
            + [("solve", self._solve(rng, start + i))
               for i in range(SOLVES - hot_solves)]
            + [("sweep", self.hot_sweeps[(start + i) % HOT_SWEEPS])
               for i in range(hot_sweeps)]
            + [("sweep", self._sweep(rng, start + i))
               for i in range(SWEEPS - hot_sweeps)])
        rng.shuffle(bodies)
        return [Op(f"{phase}{index}.{i}", kind, body)
                for i, (kind, body) in enumerate(bodies)]

    @staticmethod
    def execute(client, op: Op) -> Any:
        path = "/v1/solve" if op.kind == "solve" else "/v1/sweep"
        return client.request_json("POST", path, op.body)

    @staticmethod
    def check(op: Op) -> List[str]:
        if op.kind == "solve":
            return oracle.check_solve_payload(op.body, op.response)
        return oracle.check_grid(op.body, op.response["points"])


def tier_counters(client) -> Dict[str, float]:
    """Group-wide shared-tier events from ``/metrics``."""
    counters = {}
    for line in client.metrics_text().splitlines():
        if line.startswith("scaleout_shared_cache_total{"):
            labels, value = line[len("scaleout_shared_cache_total{"):] \
                .rsplit("} ", 1)
            fields = dict(part.split("=") for part in labels.split(","))
            name = f"{fields['namespace'].strip(chr(34))}." \
                   f"{fields['event'].strip(chr(34))}"
            counters[name] = float(value)
    return counters


def serve_phase(workspace: Workspace, mix: ServeMix, outcome: Outcome,
                phase: str, rounds: int, trace_dir: Optional[str] = None,
                launches: int = 1):
    corrector = hostspeed.Corrector()
    def make_args() -> List[str]:
        return ["--processes", "2", "--job-workers", "0",
                "--shared-cache-dir", workspace.fresh("tier"),
                "--state-dir", workspace.fresh("state")]

    server, setup_s = start_phase(workspace, make_args, launches,
                                  trace_dir, corrector, outcome)
    try:
        before = tier_counters(server.client)
        walls, ops = timed_rounds(
            lambda i: mix.round_ops(phase, i),
            lambda op: mix.execute(server.client, op), mix.check, outcome,
            rounds, corrector)
        after = tier_counters(server.client)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    tier = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return walls, ops, setup_s, rss, tier, corrector.run_factor()


def start_phase(workspace: Workspace, make_args: Callable[[], List[str]],
                launches: int, trace_dir: Optional[str],
                corrector: hostspeed.Corrector,
                outcome: Outcome) -> Tuple[Server, float]:
    if trace_dir is None:
        return launch_servers(workspace, make_args, launches, corrector,
                              outcome)
    server = start_server(workspace, make_args, outcome, trace_dir)
    return server, server.setup_s


def serve(args, workspace: Workspace, outcome: Outcome) -> Dict[str, float]:
    mix = ServeMix(args.seed)
    if not args.trace:
        walls, ops, setup_s, rss, _, factor = serve_phase(
            workspace, mix, outcome, "m", rounds_for(args),
            launches=SETUP_LAUNCHES)
        latencies = [op.latency_ms for op in ops]
        report_uncorrected(end_to_end(setup_s, walls, rss, latencies, 1.0))
        return end_to_end(setup_s, walls, rss, latencies, factor)
    plain, _, _, _, _, plain_factor = serve_phase(
        workspace, mix, outcome, "u", TRACED_ROUNDS)
    trace_dir = workspace.fresh("spans")
    _tag_requests()
    traced, ops, _, _, tier, traced_factor = serve_phase(
        workspace, mix, outcome, "t", TRACED_ROUNDS, trace_dir)
    timed_names = {op.name for op in ops}
    spans_ = [s for s in spans.load(trace_dir)
              if s["op"] is None or s["op"] in timed_names]
    metrics = spans.summarize(spans_, {
        "requests": len(ops),
        "client_ms": {op.name: op.latency_ms for op in ops},
        "tier": tier})
    metrics["trace.overhead_s"] = (sum(traced) * traced_factor
                                   - sum(plain) * plain_factor)
    metrics["service.launch_failures"] = float(outcome.launch_failures)
    return metrics


# ----------------------------------------------------------------------
# jobs: the four job kinds against one process with two job workers
# ----------------------------------------------------------------------


class JobsMix:
    """Seeded jobs on a fixed plan: every round submits the same jobs of
    each kind with the same sizes; the die sizes and experiment ids
    cycle over the rounds, and the seed picks where the cycles start and
    the remaining numbers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.ids = list(ANALYTIC_IDS)
        rng.shuffle(self.ids)
        self.offset = rng.randrange(len(OPTIMIZE_CEAS))

    def round_ops(self, phase: str, index: int) -> List[Op]:
        rng = random.Random(f"{self.seed}:{phase}:{index}")
        ops = []
        for kind, count in JOBS_PER_ROUND.items():
            for slot in range(count):
                cycle = index * count + slot
                op = Op(f"{phase}{index}.{len(ops)}", kind,
                        getattr(self, f"_{kind}")(rng, cycle))
                op.poll_offset = rng.uniform(0, POLL_S)
                ops.append(op)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _sweep(rng: random.Random, cycle: int) -> Dict[str, Any]:
        start, step = rng.uniform(16, 64), rng.uniform(2, 8)
        low = rng.uniform(0.5, 1.0)
        return {"kind": "sweep",
                "ceas": [round(start + i * step, 2)
                         for i in range(JOB_SWEEP_SIDE)],
                "budgets": [round(low + 0.1 * i, 3)
                            for i in range(JOB_SWEEP_SIDE)],
                "alpha": round(rng.uniform(0.3, 0.7), 3),
                "techniques": list(EXACT_STACKS[cycle % len(EXACT_STACKS)])}

    def _optimize(self, rng: random.Random, cycle: int) -> Dict[str, Any]:
        return {"ceas": OPTIMIZE_CEAS[(self.offset + cycle)
                                      % len(OPTIMIZE_CEAS)],
                "budget": round(rng.uniform(0.8, 2.0), 2),
                "alpha": round(rng.uniform(0.3, 0.7), 3),
                "strategy": "exhaustive", "space": OPTIMIZE_SPACE}

    @staticmethod
    def _trace(rng: random.Random, cycle: int) -> Dict[str, Any]:
        return {"source": "powerlaw",
                "units": [round(rng.uniform(0.3, 0.7), 2)],
                "accesses": TRACE_ACCESSES, "seed": rng.randrange(1 << 30)}

    def _experiments(self, rng: random.Random, cycle: int) -> Dict[str, Any]:
        return {"kind": "experiments",
                "ids": [self.ids[(3 * cycle + i) % len(self.ids)]
                        for i in range(3)]}

    @staticmethod
    def execute(client, op: Op) -> Any:
        path = {"optimize": "/v1/optimize",
                "trace": "/v1/traces"}.get(op.kind, "/v1/jobs")
        job = client.request_json("POST", path, op.body)
        # The first poll comes after a seeded fraction of the interval:
        # with both clients polling in step, the idle workers' 0.1 s
        # polls and the clients' polls lock into one of two phases for a
        # whole run, and turnaround jumps by ~50 ms a job between runs.
        delay = op.poll_offset
        while True:
            time.sleep(delay)
            delay = POLL_S
            op.polls += 1
            job = client.job(job["id"])
            if job["status"] in ("succeeded", "failed", "cancelled"):
                break
        if job["status"] != "succeeded":
            raise RuntimeError(f"job {job['id']} {job['status']}: "
                               f"{job.get('error')}")
        return job

    @staticmethod
    def check(op: Op) -> List[str]:
        body, result = op.body, op.response["result"]
        if op.kind == "sweep":
            return oracle.check_grid(body, result["points"])
        if op.kind == "optimize":
            if result["evaluated"] != result["valid_configs"]:
                return ["exhaustive search skipped valid configurations"]
            return oracle.check_frontier(result["frontier"])
        if op.kind == "trace":
            return oracle.check_trace_job(body, result)
        problems = []
        entries = result["experiments"]
        if [e["experiment_id"] for e in entries] != body["ids"]:
            return [f"experiments job returned {len(entries)} entries"]
        for entry in entries:
            problems += oracle.check_experiment(entry["experiment_id"],
                                                entry["result"])
        return problems


def jobs_phase(workspace: Workspace, mix: JobsMix, outcome: Outcome,
               phase: str, rounds: int, trace_dir: Optional[str] = None,
               launches: int = 1):
    corrector = hostspeed.Corrector()
    def make_args() -> List[str]:
        return ["--job-workers", "2", "--state-dir",
                workspace.fresh("state")]

    server, setup_s = start_phase(workspace, make_args, launches,
                                  trace_dir, corrector, outcome)
    try:
        walls, ops = timed_rounds(
            lambda i: mix.round_ops(phase, i),
            lambda op: mix.execute(server.client, op), mix.check, outcome,
            rounds, corrector)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return walls, ops, setup_s, rss, corrector.run_factor()


def jobs(args, workspace: Workspace, outcome: Outcome) -> Dict[str, float]:
    mix = JobsMix(args.seed)
    if not args.trace:
        walls, ops, setup_s, rss, factor = jobs_phase(
            workspace, mix, outcome, "m", rounds_for(args),
            launches=SETUP_LAUNCHES)
        latencies = [op.latency_ms for op in ops]
        report_uncorrected(end_to_end(setup_s, walls, rss, latencies, 1.0))
        return end_to_end(setup_s, walls, rss, latencies, factor)
    plain, _, _, _, plain_factor = jobs_phase(workspace, mix, outcome,
                                              "u", TRACED_ROUNDS)
    trace_dir = workspace.fresh("spans")
    _tag_requests()
    traced, ops, _, _, traced_factor = jobs_phase(
        workspace, mix, outcome, "t", TRACED_ROUNDS, trace_dir)
    timed = [op for op in ops if op.error is None]
    job_ids = {op.response["id"] for op in timed}
    names = {op.name for op in timed}
    spans_ = [s for s in spans.load(trace_dir)
              if s["op"] is None or s["op"] in job_ids or s["op"] in names]
    points = sum(op.response["result"]["evaluated"] for op in timed
                 if op.kind == "optimize")
    metrics = spans.summarize(spans_, {
        "jobs": len(timed), "jobs_data": [op.response for op in timed],
        "polls": sum(op.polls for op in timed),
        "optimize_points": points})
    metrics["trace.overhead_s"] = (sum(traced) * traced_factor
                                   - sum(plain) * plain_factor)
    metrics["service.launch_failures"] = float(outcome.launch_failures)
    return metrics


# ----------------------------------------------------------------------
# reproduce: the whole registry through the experiment engine
# ----------------------------------------------------------------------


class Engine:
    """``program.py engine``: one process holding the engine and memo."""

    def __init__(self, workspace: Workspace,
                 trace_dir: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(BENCH_DIR, "program.py"),
                   "engine"] + ([trace_dir] if trace_dir else [])
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=workspace.env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("ready "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("experiment engine failed to start")
        self.ids = json.loads(line[len("ready "):])

    def run(self, experiment_id: str) -> Dict[str, Any]:
        self.proc.stdin.write(f"run {experiment_id}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"engine died running {experiment_id}")
        return json.loads(line)

    def quit(self) -> float:
        """Stop; returns the process's peak resident memory (MB)."""
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        peak = json.loads(self.proc.stdout.readline())["peak_rss_mb"]
        self.proc.wait(timeout=60)
        return peak

    def close(self) -> None:
        """Make sure the process has ended (after an error)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def reproduce_round(engine: Engine, outcome: Outcome,
                    corrector: hostspeed.Corrector,
                    ids: Optional[List[str]] = None):
    """``ids`` (every registry id) in registry order, each its own
    segment; seconds per id as the engine timed it, and each segment's
    own factor."""
    raw: Dict[str, float] = {}
    factors: Dict[str, float] = {}
    fig1_err = 0.0
    for experiment_id in engine.ids if ids is None else ids:
        try:
            reply, _, factor = corrector.segment(
                lambda: engine.run(experiment_id))
        except (RuntimeError, ValueError) as error:
            outcome.error(experiment_id, error)
            continue
        raw[experiment_id] = reply["seconds"]
        factors[experiment_id] = factor
        outcome.record(oracle.check_experiment(experiment_id,
                                               reply["result"]))
        if experiment_id == "fig1":
            fig1_err = oracle.fig1_alpha_error(reply["result"])
    return raw, factors, fig1_err


def corrected(raw: Dict[str, float], factors: Dict[str, float],
              corrector: hostspeed.Corrector) -> Dict[str, float]:
    """Seconds per id scaled to the reference host: the analytic ids
    (milliseconds) by their own segment, the simulated ones (seconds) by
    the run (``hostspeed.SHORT_S``)."""
    return {experiment_id: seconds * corrector.factor(
                seconds, factors[experiment_id])
            for experiment_id, seconds in raw.items()}


def reproduce(args, workspace: Workspace,
              outcome: Outcome) -> Dict[str, float]:
    corrector = hostspeed.Corrector()
    if args.trace:
        rounds = {}
        for name, trace_dir in (("plain", None),
                                ("traced", workspace.fresh("spans"))):
            engine = Engine(workspace, trace_dir)
            try:
                rounds[name] = reproduce_round(engine, outcome, corrector)
                engine.quit()
            finally:
                engine.close()
        plain_raw, plain_factors, fig1_err = rounds["plain"]
        plain = corrected(plain_raw, plain_factors, corrector)
        traced = corrected(*rounds["traced"][:2], corrector)
        metrics = spans.summarize(spans.load(trace_dir), {
            "experiments": plain, "fig1_alpha_err": fig1_err})
        metrics["trace.overhead_s"] = sum(traced.values()) \
            - sum(plain.values())
        metrics["service.launch_failures"] = 0.0
        return metrics
    setups, peaks, passes, repeats = [], [], [], []
    # Each launch is a fresh engine with an empty memo, as a fresh
    # `python -m repro all` would be.  The launches before the first
    # round measure set-up and run the analytic ids alone: one sample of
    # a few milliseconds cannot be timed steadily on a noisy host, so
    # each analytic id's latency is the median of SETUP_LAUNCHES samples.
    for launch_index in range(SETUP_LAUNCHES - 1 + rounds_for(args)):
        engine, setup_s = launch(corrector, lambda: Engine(workspace))
        try:
            setups.append(setup_s)
            if launch_index < SETUP_LAUNCHES - 1:
                analytic = [i for i in engine.ids
                            if i not in spans.SIMULATED_IDS]
                repeats.append(reproduce_round(engine, outcome, corrector,
                                               analytic))
            else:
                passes.append(reproduce_round(engine, outcome, corrector))
            peaks.append(engine.quit())
        finally:
            engine.close()
    # Corrected once the run is over, when the run's factor is known.
    repeats = [(raw, corrected(raw, factors, corrector))
               for raw, factors, _ in repeats]
    raw_walls, raw_latencies, walls, latencies = [], [], [], []
    for raw, factors, _ in passes:
        seconds = corrected(raw, factors, corrector)
        raw_walls.append(sum(raw.values()))
        walls.append(sum(seconds.values()))
        for eid in raw:
            raw_latencies.append(1000 * statistics.median(
                [raw[eid]] + [r[eid] for r, _ in repeats if eid in r]))
            latencies.append(1000 * statistics.median(
                [seconds[eid]] + [c[eid] for _, c in repeats if eid in c]))
    report_uncorrected(end_to_end(statistics.median(setups), raw_walls,
                                  max(peaks), raw_latencies, 1.0))
    metrics = end_to_end(statistics.median(setups), walls, max(peaks),
                         latencies, 1.0)
    metrics["setup_s"] *= corrector.run_factor()
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = {"reproduce": reproduce, "serve": serve, "jobs": jobs}

#: End-to-end metrics, reported by every workload: (name, unit).
E2E_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
               ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))
UNITS = dict(E2E_METRICS)
UNITS.update({name: unit for name, unit, _ in spans.LAYER_METRICS})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program at {SRC}/repro: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workspace = Workspace()
    outcome = Outcome()
    try:
        metrics = WORKLOADS[args.workload](args, workspace, outcome)
    finally:
        workspace.close()
    for problem in outcome.wrong[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for problem in outcome.errors[:20]:
        print(f"operation failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
