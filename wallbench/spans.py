"""Traced runs: spans recorded around calls into each layer.

:func:`install` wraps public functions of the program's layers in the
calling process; the program itself is not changed.  Each span has a
name, a start, an end, the span that caused it (its parent on the same
thread) and the id of the operation it serves (an HTTP request, a job
or an experiment), so spans of one operation share an id across
processes.  Calls made once per memory access (trace generators, cache
accesses) are folded into one aggregate span per parent, holding their
summed time and call count.  Spans stay in memory until
:func:`flush` writes them to ``spans-<pid>.jsonl`` in the trace
directory; :func:`summarize` turns every process's file into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: HTTP header carrying the client's operation id to the server.
OP_HEADER = "X-Wallbench-Op"

_clock = time.perf_counter

#: Per-thread recording state (see :meth:`Recorder.state`).
_T = threading.local()


class Recorder:
    """Spans of this process, kept in memory until :meth:`flush`.

    Per-thread state lives in one ``threading.local``: the stack of
    open spans, the current operation id, the nesting depth of
    fine-grained calls and their aggregates, keyed by
    ``(parent span id, op, name)``.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked child starts with no spans)."""
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.aggregates: List[dict] = []
        self.iterators: List["_TimedIterator"] = []
        self.next_id = 0
        global _T
        _T = threading.local()

    def state(self):
        local = _T
        try:
            local.stack
        except AttributeError:
            local.stack, local.op, local.depth = [], None, 0
            local.totals = {}
            with self.lock:
                self.aggregates.append(local.totals)
        return local

    @property
    def op(self) -> Optional[str]:
        return self.state().op

    @op.setter
    def op(self, value: Optional[str]) -> None:
        self.state().op = value

    def begin(self, name: str) -> list:
        state = self.state()
        stack = state.stack
        with self.lock:
            self.next_id += 1
            sid = self.next_id
        span = [sid, stack[-1][0] if stack else 0, state.op, name,
                _clock(), 0.0, {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = _clock()
        self.state().stack.pop()
        with self.lock:
            self.spans.append(span)

    def flush(self) -> None:
        if os.getpid() != self.pid:
            return
        for iterator in self.iterators:
            iterator.report()
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with self.lock, open(path, "w") as handle:
            for sid, parent, op, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "busy": end - start,
                    "attrs": attrs}) + "\n")
            for totals in self.aggregates:
                for (parent, op, name), (busy, calls) in totals.items():
                    handle.write(json.dumps({
                        "id": None, "parent": parent, "op": op,
                        "name": name, "start": None, "end": None,
                        "busy": busy, "attrs": {"calls": calls}}) + "\n")
            self.spans, self.iterators = [], []
            for totals in self.aggregates:
                totals.clear()


def _key(state, name: str) -> tuple:
    stack = state.stack
    return (stack[-1][0] if stack else 0, state.op, name)


def _fold(totals: dict, key: tuple, busy: float, calls: int) -> None:
    """Add fine-grained time to an aggregate of the open spans."""
    total = totals.get(key)
    if total is None:
        totals[key] = [busy, calls]
    else:
        total[0] += busy
        total[1] += calls


RECORDER: Optional[Recorder] = None

#: Every per-layer metric a traced run reports: (name, unit, better).
#: The registry ids that simulate and take seconds; the other 23 are
#: closed-form and take milliseconds.
SIMULATED_IDS = ("fig1", "fig14", "ext-validation", "ext-sharing",
                 "ext-linesize", "ext-trace-lru", "ext-trace-sharing")

LAYER_METRICS = (
    ("service.transport_ms", "ms", "lower"),
    ("service.dispatch_ms", "ms", "lower"),
    ("service.validate_ms", "ms", "lower"),
    ("service.encode_ms", "ms", "lower"),
    ("service.response_cache.hit_ratio", "ratio", "higher"),
    ("resilience.admission_wait_ms", "ms", "lower"),
    ("resilience.shed", "count", "lower"),
    ("scaleout.tier.memo_hit_ratio", "ratio", "higher"),
    ("scaleout.tier.response_hit_ratio", "ratio", "higher"),
    ("scaleout.tier.ms_per_request", "ms", "lower"),
    ("core.solve_ms", "ms", "lower"),
    ("core.scalar_solves", "count", "lower"),
    ("core.delegated_points", "count", "lower"),
    ("core.memo.hit_ratio", "ratio", "higher"),
    ("experiments.fig1_s", "s", "lower"),
    ("experiments.fig14_s", "s", "lower"),
    ("experiments.ext-validation_s", "s", "lower"),
    ("experiments.ext-sharing_s", "s", "lower"),
    ("experiments.ext-linesize_s", "s", "lower"),
    ("experiments.ext-trace-lru_s", "s", "lower"),
    ("experiments.ext-trace-sharing_s", "s", "lower"),
    ("experiments.analytic_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.profile_s", "s", "lower"),
    ("workloads.profile_rate", "1/s", "higher"),
    ("cache.sim_s", "s", "lower"),
    ("cache.sim_rate", "1/s", "higher"),
    ("traces.synth_s", "s", "lower"),
    ("traces.profile_s", "s", "lower"),
    ("traces.fit_s", "s", "lower"),
    ("traces.rate", "1/s", "higher"),
    ("analysis.fit_s", "s", "lower"),
    ("analysis.export_ms", "ms", "lower"),
    ("analysis.fig1_alpha_err", "alpha", "lower"),
    ("optimize.search_ms", "ms", "lower"),
    ("optimize.points_per_s", "1/s", "higher"),
    ("jobs.queue_wait_ms", "ms", "lower"),
    ("jobs.run_ms", "ms", "lower"),
    ("jobs.checkpoint_ms", "ms", "lower"),
    ("jobs.claim_ms", "ms", "lower"),
    ("jobs.polls_per_job", "count", "lower"),
    ("jobs.retries", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("service.launch_failures", "count", "lower"),
)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _spanned(name: str, func: Callable,
             attrs: Optional[Callable[[Any, tuple, Any], dict]] = None
             ) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = RECORDER.state().stack
        if stack and stack[-1][3] == name:
            return func(*args, **kwargs)  # recursion: one span
        span = RECORDER.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            RECORDER.end(span)
        if attrs is not None:
            span[6].update(attrs(result, args, kwargs))
        return result
    return wrapper


def _aggregated(name: str, func: Callable) -> Callable:
    """For calls made once per memory access: only the outermost such
    call on a thread is timed, and its time folds into an aggregate.
    Kept inline: it runs millions of times in a traced run."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        state = _T
        try:
            depth = state.depth
        except AttributeError:
            state = RECORDER.state()
            depth = 0
        if depth:
            return func(*args, **kwargs)
        state.depth = 1
        started = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            busy = _clock() - started
            state.depth = 0
            stack = state.stack
            key = (stack[-1][0] if stack else 0, state.op, name)
            total = state.totals.get(key)
            if total is None:
                state.totals[key] = [busy, 1]
            else:
                total[0] += busy
                total[1] += 1
    return wrapper


class _TimedIterator:
    """Times each ``next`` of a trace generator, summed per iterator
    and folded into an aggregate when exhausted or flushed."""

    __slots__ = ("name", "inner", "busy", "calls", "state", "key",
                 "totals")

    def __init__(self, name: str, inner: Iterable) -> None:
        self.name, self.inner = name, iter(inner)
        self.busy, self.calls, self.state = 0.0, 0, None

    def __iter__(self):
        return self

    def __next__(self):
        state = self.state
        if state is None:
            # The thread's own totals: the flush that reports them may
            # run on another thread.
            state = self.state = RECORDER.state()
            self.key, self.totals = _key(state, self.name), state.totals
            with RECORDER.lock:
                RECORDER.iterators.append(self)
        if state.depth:
            return next(self.inner)
        state.depth = 1
        started = _clock()
        try:
            return next(self.inner)
        finally:
            self.busy += _clock() - started
            self.calls += 1
            state.depth = 0

    def report(self) -> None:
        if self.state is not None and self.calls:
            _fold(self.totals, self.key, self.busy, self.calls)
            self.busy, self.calls = 0.0, 0


def _generating(name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return _TimedIterator(name, func(*args, **kwargs))
    return wrapper


def _trace_streams(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        streams = func(*args, **kwargs)
        warmup = streams.warmup
        return streams._replace(
            stream=_TimedIterator("traces.synth", streams.stream),
            warmup=None if warmup is None
            else _TimedIterator("traces.synth", warmup))
    return wrapper


class _TimedAdmission:
    """Times entering an admission context: the wait for a slot."""

    def __init__(self, manager) -> None:
        self.manager = manager

    def __enter__(self):
        span = RECORDER.begin("resilience.admission")
        try:
            return self.manager.__enter__()
        finally:
            RECORDER.end(span)

    def __exit__(self, *exc):
        return self.manager.__exit__(*exc)


def _admission(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return _TimedAdmission(func(*args, **kwargs))
    return wrapper


def _dispatch(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(self, method, target, body, headers=None):
        previous = RECORDER.op
        RECORDER.op = headers.get(OP_HEADER) if headers is not None \
            else None
        span = RECORDER.begin("service.dispatch")
        try:
            response = func(self, method, target, body, headers)
        finally:
            RECORDER.end(span)
            RECORDER.op = previous
        span[6]["status"] = response.status
        return response
    return wrapper


def _job_run(func: Callable) -> Callable:
    """``Worker.execute_job``: the job's id is the operation id."""
    spanned = _spanned("jobs.run", func)

    @functools.wraps(func)
    def wrapper(self, job, stop):
        previous = RECORDER.op
        RECORDER.op = job.id
        try:
            return spanned(self, job, stop)
        finally:
            RECORDER.op = previous
    return wrapper


def _memo_counts(result, args, kwargs) -> dict:
    values = result if isinstance(result, list) else [result]
    hits = sum(1 for value in values if value is not None)
    return {"hits": hits, "misses": len(values) - hits}


def _profiled(func: Callable) -> Callable:
    """``record_stream`` with the accesses it recorded."""
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        before = self.accesses
        span = RECORDER.begin("workloads.profile")
        try:
            return func(self, *args, **kwargs)
        finally:
            RECORDER.end(span)
            span[6]["accesses"] = self.accesses - before
    return wrapper


def _targets():
    """(module, attribute path, wrapper factory) for every layer."""
    spanned = lambda name, attrs=None: (  # noqa: E731
        lambda f: _spanned(name, f, attrs))
    return [
        # service
        ("repro.service.app", "BandwidthWallService.dispatch", _dispatch),
        *[("repro.service.validation", fn, spanned("service.validate"))
          for fn in ("validate_solve_request", "validate_sweep_request",
                     "validate_job_request", "validate_optimize_request",
                     "validate_trace_request")],
        ("repro.analysis.export", "dumps_strict",
         spanned("service.encode")),
        ("repro.service.cache", "ResponseCache.get_or_compute",
         spanned("service.response_cache",
                 lambda r, a, k: {"outcome": r[1]})),
        ("repro.scaleout.shared_cache", "TieredResponseCache.get_or_compute",
         spanned("service.response_cache",
                 lambda r, a, k: {"outcome": r[1]})),
        # resilience
        ("repro.resilience.admission", "AdmissionController.admit",
         _admission),
        # scaleout
        *[("repro.scaleout.shared_cache", f"SharedCacheTier.{fn}",
           spanned("scaleout.tier"))
          for fn in ("get", "get_many", "put", "put_many")],
        # core
        ("repro.core.scenario", "solve_scenario", spanned("core.solve")),
        ("repro.core.scaling", "BandwidthWallModel.supportable_cores",
         spanned("core.solve")),
        ("repro.core.scaling", "BandwidthWallModel.supportable_cores_batch",
         spanned("core.batch")),
        ("repro.core.vectorized", "solve_batch", spanned("core.kernel")),
        ("repro.core.scaling", "BandwidthWallModel.solve_point",
         spanned("core.scalar")),
        ("repro.core.memo", "MemoCache.lookup",
         spanned("core.memo", _memo_counts)),
        ("repro.core.memo", "MemoCache.lookup_many",
         spanned("core.memo", _memo_counts)),
        ("repro.scaleout.shared_cache", "SharedMemoCache.lookup",
         spanned("core.memo", _memo_counts)),
        ("repro.scaleout.shared_cache", "SharedMemoCache.lookup_many",
         spanned("core.memo", _memo_counts)),
        # workloads
        ("repro.workloads.stack_distance",
         "PowerLawTraceGenerator.accesses",
         lambda f: _generating("workloads.generate", f)),
        ("repro.workloads.stack_distance",
         "PowerLawTraceGenerator.warmup_accesses",
         lambda f: _generating("workloads.generate", f)),
        ("repro.workloads.spec2006", "DiscreteWorkingSetGenerator.accesses",
         lambda f: _generating("workloads.generate", f)),
        ("repro.workloads.parsec_like", "ParsecLikeWorkload.accesses",
         lambda f: _generating("workloads.generate", f)),
        ("repro.workloads.stack_distance",
         "StackDistanceProfiler.record_stream", _profiled),
        ("repro.workloads.stack_distance", "StackDistanceProfiler.record",
         lambda f: _aggregated("workloads.profile", f)),
        ("repro.workloads.stack_distance",
         "StackDistanceProfiler.miss_curve", spanned("workloads.profile")),
        # cache
        ("repro.cache.set_assoc", "SetAssociativeCache.access",
         lambda f: _aggregated("cache.sim", f)),
        ("repro.cache.shared_l2", "SharedL2Cache.access",
         lambda f: _aggregated("cache.sim", f)),
        ("repro.cache.coherence", "PrivateCacheSystem.access",
         lambda f: _aggregated("cache.sim", f)),
        # traces
        ("repro.traces.pipeline", "execute_trace_chunk",
         spanned("traces.pipeline")),
        ("repro.traces.synthesis", "trace_source_streams", _trace_streams),
        ("repro.traces.simulate", "simulate_trace",
         spanned("traces.profile")),
        ("repro.traces.simulate", "cross_check_curve",
         spanned("traces.profile")),
        ("repro.traces.fitting", "fit_yavits", spanned("traces.fit")),
        # analysis
        ("repro.analysis.fitting", "fit_power_law", spanned("analysis.fit")),
        ("repro.analysis.fitting", "fit_miss_curve",
         spanned("analysis.fit")),
        ("repro.analysis.export", "to_jsonable", spanned("analysis.export")),
        ("repro.analysis.export", "strict_jsonable",
         spanned("analysis.export")),
        # optimize
        ("repro.optimize.search", "execute_optimize_chunk",
         spanned("optimize.search")),
        # jobs
        ("repro.jobs.worker", "Worker.execute_job", _job_run),
        ("repro.jobs.store", "JobStore.lease",
         spanned("jobs.claim", lambda r, a, k: {"got": r is not None})),
        ("repro.jobs.store", "JobStore.checkpoint",
         spanned("jobs.checkpoint")),
    ]


def install(out_dir: str) -> Recorder:
    """Wrap every layer's entry points in this process.

    Module-level functions are replaced in every loaded ``repro``
    module that imported them by name, so callers see the wrapper
    whichever way they reach the function.  Forked children (pre-fork
    serving) start with an empty recorder and flush when their serving
    loop returns.
    """
    global RECORDER
    import importlib

    RECORDER = Recorder(out_dir)
    os.register_at_fork(after_in_child=RECORDER.reset)
    for module_name, path, factory in _targets():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapped = factory(original)
        setattr(owner, attr, wrapped)
        if not owner_name:
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and loaded is not None \
                        and getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, wrapped)
    prefork = importlib.import_module("repro.scaleout.prefork")
    child_main = prefork._child_main

    def flushing_child_main(*args, **kwargs):
        try:
            return child_main(*args, **kwargs)
        finally:
            RECORDER.flush()
    prefork._child_main = flushing_child_main
    return RECORDER


# ----------------------------------------------------------------------
# Per-layer summary
# ----------------------------------------------------------------------


def load(out_dir: str) -> List[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            pid = name[len("spans-"):-len(".jsonl")]
            with open(os.path.join(out_dir, name)) as handle:
                for line in handle:
                    span = json.loads(line)
                    span["pid"] = pid
                    spans.append(span)
    return spans


class Tree:
    """Spans of every process, with parent links and self times."""

    def __init__(self, spans: List[dict]) -> None:
        self.spans = spans
        self.by_id = {(s["pid"], s["id"]): s for s in spans
                      if s["id"] is not None}
        child_busy: Dict[tuple, float] = {}
        for span in spans:
            key = (span["pid"], span["parent"])
            child_busy[key] = child_busy.get(key, 0.0) + span["busy"]
        for span in spans:
            span["self"] = span["busy"] - child_busy.get(
                (span["pid"], span["id"]), 0.0) if span["id"] is not None \
                else span["busy"]

    def parent(self, span: dict) -> Optional[dict]:
        return self.by_id.get((span["pid"], span["parent"]))

    def under(self, span: dict, prefix: str) -> bool:
        """Whether an ancestor's name starts with ``prefix``."""
        node = self.parent(span)
        while node is not None:
            if node["name"].startswith(prefix):
                return True
            node = self.parent(node)
        return False

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def outermost(self, prefix: str) -> List[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)
                and not self.under(s, prefix)]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: List[dict], ctx: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer did no work.

    ``ctx`` carries what the benchmark measured outside the spans:
    ``requests`` and ``jobs`` (operation counts), ``client_ms`` (op id ->
    client latency), ``job_ops`` (job id -> client op id), ``jobs_data``
    (final job payloads), ``tier`` (scale-out counter deltas from
    ``/metrics``), ``experiments`` (id -> corrected seconds) and
    ``fig1_alpha_err``.
    """
    tree = Tree(spans)
    out: Dict[str, float] = {}
    requests = ctx.get("requests", 0)
    jobs = ctx.get("jobs", 0)
    per_op = requests or jobs

    def busy(name, spans_=None):
        return sum(s["busy"] for s in (spans_ if spans_ is not None
                                       else tree.named(name)))

    def self_time(name):
        return sum(s["self"] for s in tree.named(name))

    # service
    dispatch = tree.named("service.dispatch")
    server_ms: Dict[str, float] = {}
    for span in dispatch:
        if span["op"] is not None:
            server_ms[span["op"]] = server_ms.get(span["op"], 0.0) \
                + 1000 * span["busy"]
    client_ms = ctx.get("client_ms", {})
    out["service.transport_ms"] = _median(
        [ms - server_ms[op] for op, ms in client_ms.items()
         if op in server_ms])
    out["service.dispatch_ms"] = 1000 * _ratio(
        self_time("service.dispatch"), per_op)
    out["service.validate_ms"] = 1000 * _ratio(
        busy("service.validate"), per_op)
    out["service.encode_ms"] = 1000 * _ratio(busy("service.encode"),
                                             per_op)
    lookups = [s for s in tree.outermost("service.response_cache")]
    out["service.response_cache.hit_ratio"] = _ratio(
        sum(1 for s in lookups if s["attrs"].get("outcome") == "hit"),
        len(lookups))
    # resilience
    out["resilience.admission_wait_ms"] = _p90(
        [1000 * s["busy"] for s in tree.named("resilience.admission")])
    out["resilience.shed"] = float(sum(
        1 for s in dispatch if s["attrs"].get("status") == 429))
    # scaleout
    tier = ctx.get("tier", {})
    for namespace in ("memo", "response"):
        hits = tier.get(f"{namespace}.hit", 0.0)
        out[f"scaleout.tier.{namespace}_hit_ratio"] = _ratio(
            hits, hits + tier.get(f"{namespace}.miss", 0.0))
    out["scaleout.tier.ms_per_request"] = 1000 * _ratio(
        busy("scaleout.tier"), requests)
    # core
    # Core time without the shared tier the memo consults under it.
    out["core.solve_ms"] = 1000 * _ratio(
        busy(None, tree.outermost("core."))
        - busy(None, [s for s in tree.named("scaleout.tier")
                      if tree.under(s, "core.")]), per_op)
    scalar = tree.named("core.scalar")
    out["core.scalar_solves"] = float(len(scalar))
    out["core.delegated_points"] = float(sum(
        1 for s in scalar if tree.under(s, "core.batch")))
    memo = [s for s in tree.named("core.memo")
            if not tree.under(s, "core.memo")]
    hits = sum(s["attrs"]["hits"] for s in memo)
    out["core.memo.hit_ratio"] = _ratio(
        hits, hits + sum(s["attrs"]["misses"] for s in memo))
    # experiments (corrected seconds from the untraced round)
    experiments = ctx.get("experiments", {})
    for eid in SIMULATED_IDS:
        out[f"experiments.{eid}_s"] = experiments.get(eid, 0.0)
    out["experiments.analytic_s"] = sum(
        s for eid, s in experiments.items() if eid not in SIMULATED_IDS)
    # workloads / traces: split by whether a trace pipeline caused them
    gens = [s for s in tree.spans
            if s["name"] in ("workloads.generate", "traces.synth")]
    profiles = tree.named("workloads.profile")
    in_traces = lambda s: tree.under(s, "traces.pipeline")  # noqa: E731
    out["workloads.generate_s"] = busy(
        None, [s for s in gens if not in_traces(s)])
    out["workloads.profile_s"] = sum(
        s["self"] for s in profiles if not in_traces(s))
    out["workloads.profile_rate"] = _ratio(
        sum(s["attrs"].get("accesses", 0) for s in profiles
            if not in_traces(s)), out["workloads.profile_s"])
    out["cache.sim_s"] = busy("cache.sim")
    out["cache.sim_rate"] = _ratio(
        sum(s["attrs"]["calls"] for s in tree.named("cache.sim")),
        out["cache.sim_s"])
    out["traces.synth_s"] = busy(None, [s for s in gens if in_traces(s)])
    out["traces.profile_s"] = self_time("traces.profile") + sum(
        s["self"] for s in profiles if in_traces(s))
    out["traces.fit_s"] = busy("traces.fit")
    out["traces.rate"] = _ratio(
        sum(s["attrs"].get("accesses", 0) for s in profiles
            if in_traces(s)), out["traces.profile_s"])
    # analysis
    out["analysis.fit_s"] = sum(
        s["self"] for s in tree.named("analysis.fit")
        if not in_traces(s))
    out["analysis.export_ms"] = 1000 * _ratio(
        busy(None, [s for s in tree.outermost("analysis.export")
                    if not tree.under(s, "service.encode")]), jobs)
    out["analysis.fig1_alpha_err"] = ctx.get("fig1_alpha_err", 0.0)
    # optimize
    searches: Dict[str, float] = {}
    for span in tree.named("optimize.search"):
        searches[span["op"]] = searches.get(span["op"], 0.0) + span["busy"]
    out["optimize.search_ms"] = 1000 * _median(list(searches.values()))
    out["optimize.points_per_s"] = _ratio(
        ctx.get("optimize_points", 0), sum(searches.values()))
    # jobs
    runs: Dict[str, float] = {}
    checkpoints: Dict[str, float] = {}
    for span in tree.named("jobs.run"):
        runs[span["op"]] = runs.get(span["op"], 0.0) + span["busy"]
    for span in tree.named("jobs.checkpoint"):
        checkpoints[span["op"]] = checkpoints.get(span["op"], 0.0) \
            + span["busy"]
    jobs_data = ctx.get("jobs_data", [])
    out["jobs.queue_wait_ms"] = _median(
        [1000 * (j["started_at"] - j["created_at"]) for j in jobs_data])
    out["jobs.run_ms"] = 1000 * _median(list(runs.values()))
    out["jobs.checkpoint_ms"] = 1000 * _median(list(checkpoints.values()))
    out["jobs.claim_ms"] = 1000 * _median(
        [s["busy"] for s in tree.named("jobs.claim") if s["attrs"]["got"]])
    out["jobs.polls_per_job"] = _ratio(ctx.get("polls", 0), jobs)
    out["jobs.retries"] = float(sum(j.get("retries", 0)
                                    for j in jobs_data))
    return out
