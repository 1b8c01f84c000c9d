"""The HTTP application: routes, handlers, lifecycle.

Architecture
------------
:class:`BandwidthWallService` is a transport-free application object —
``dispatch(method, path, query, body)`` in, ``(status, headers, bytes)``
out — wired to the evaluation core:

* ``POST /v1/solve``   → :mod:`repro.core.scenario` (the CLI's exact
  solve/render path, so HTTP and terminal answers are byte-identical);
* ``POST /v1/sweep``   → :func:`repro.experiments.engine.sweep_grid`
  over the validated (ceas x budget) grid;
* ``GET /v1/experiments`` and ``/v1/experiments/{id}`` →
  :mod:`repro.experiments.runner` payload rendering;
* ``POST/GET/DELETE /v1/jobs[/{id}]`` → :mod:`repro.jobs` — durable,
  checkpointed background execution of experiment runs and sweep grids
  (see docs/JOBS.md);
* ``GET /healthz``     → liveness + drain state + job-queue health;
* ``GET /metrics``     → Prometheus text (incl. the ``jobs_*``
  families).

Expensive handlers run through a TTL+LRU :class:`~repro.service.cache.
ResponseCache` with single-flight coalescing, layered on the process
solve memo.  The HTTP transport is a stdlib ``ThreadingHTTPServer``
whose per-request concurrency is capped by a worker semaphore, and
shutdown is graceful: SIGTERM stops the accept loop, lets in-flight
requests drain up to a deadline, then closes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import signal
import socket
import sqlite3
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..analysis.export import dumps_strict, strict_jsonable
from ..core import memo
from ..core.presets import paper_baseline_design
from ..core.scaling import BandwidthWallModel
from ..core.scenario import (
    ScenarioRequest,
    scenario_payload,
    solve_scenario,
)
from ..jobs import JobManager, JobRecord
from ..jobs.store import FAILED, STATUSES, SUCCEEDED
from ..resilience.admission import (
    CHEAP,
    EXPENSIVE,
    AdmissionController,
    SaturatedError,
)
from ..resilience.breaker import BreakerOpenError, CircuitBreaker
from ..resilience.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    check_deadline,
    current_deadline,
    deadline_scope,
    deadline_from_ms,
)
from ..resilience.faultinject import (
    FaultInjector,
    FaultyResponseCache,
    injector_from_env,
    load_profile,
)
from .cache import FlightWaitTimeout, ResponseCache
from ..core.solver import BracketError
from .errors import (
    ApiError,
    CircuitOpenError,
    ConflictError,
    DeadlineExceededError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    ServiceDrainingError,
    StoreUnavailableError,
    TooManyRequestsError,
    UnsolvableError,
    ValidationError,
    FieldError,
)
from .metrics import MetricsRegistry
from .validation import (
    SweepRequest,
    validate_job_request,
    validate_optimize_request,
    validate_solve_request,
    validate_sweep_request,
    validate_trace_request,
)

__all__ = [
    "ServiceConfig",
    "BandwidthWallService",
    "RunningService",
    "start_service",
    "serve",
]

#: Largest accepted request body; solve/sweep bodies are tiny, so
#: anything beyond this is a client bug (or abuse), not a use case.
MAX_BODY_BYTES = 1 << 20

_JSON = "application/json; charset=utf-8"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance.

    ``state_dir`` is the durable job store's home; ``None`` uses a
    fresh temporary directory (jobs work, but do not survive the
    instance — point every replica and external worker at a real
    directory for durability).  ``job_workers=0`` disables in-process
    execution: jobs queue up for external ``python -m
    repro.jobs.worker`` processes.

    ``processes > 1`` selects pre-fork scale-out (see
    :mod:`repro.scaleout.prefork`): N forked copies of this service
    share one listening port and one job store.  Each copy keeps its
    own response cache and solve memo.
    """

    host: str = "127.0.0.1"
    port: int = 8100
    workers: int = 8
    processes: int = 1
    cache_ttl: float = 300.0
    cache_maxsize: int = 1024
    drain_deadline: float = 10.0
    state_dir: Optional[str] = None
    job_workers: int = 2
    job_lease_ttl: float = 30.0
    admission_capacity: int = 4
    admission_queue: int = 8
    admission_timeout: float = 0.5
    breaker_threshold: int = 5
    breaker_window: float = 30.0
    breaker_recovery: float = 5.0
    default_deadline_ms: Optional[float] = None
    fault_profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.processes <= 0:
            raise ValueError(
                f"processes must be positive, got {self.processes}"
            )
        if self.drain_deadline < 0:
            raise ValueError("drain_deadline must be non-negative")
        if self.job_workers < 0:
            raise ValueError(
                f"job_workers must be non-negative, got {self.job_workers}"
            )
        if self.job_lease_ttl <= 0:
            raise ValueError("job_lease_ttl must be positive")
        if self.admission_capacity <= 0:
            raise ValueError("admission_capacity must be positive")
        if self.admission_queue < 0:
            raise ValueError("admission_queue must be non-negative")
        if self.admission_timeout < 0:
            raise ValueError("admission_timeout must be non-negative")
        if self.breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_window <= 0 or self.breaker_recovery <= 0:
            raise ValueError(
                "breaker_window and breaker_recovery must be positive"
            )
        if self.default_deadline_ms is not None \
                and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")


@dataclass(frozen=True)
class Response:
    """One handler's outcome before HTTP encoding."""

    status: int
    body: bytes
    content_type: str = _JSON
    headers: Tuple[Tuple[str, str], ...] = ()


#: Routes budgeted by admission control; everything else is cheap and
#: always admitted (healthz, metrics, single solves, job polling).
EXPENSIVE_ROUTES = frozenset([
    ("POST", "/v1/sweep"),
    ("GET", "/v1/experiments/{id}"),
    ("POST", "/v1/optimize"),
    ("POST", "/v1/traces"),
])


class BandwidthWallService:
    """Transport-free request handling plus service-wide state."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.started_monotonic = time.monotonic()
        self.draining = threading.Event()
        self.fault_injector = self._build_injector(config)
        if self.fault_injector is not None:
            self.response_cache = FaultyResponseCache(
                self.fault_injector,
                maxsize=config.cache_maxsize, ttl=config.cache_ttl,
            )
        else:
            self.response_cache = ResponseCache(
                maxsize=config.cache_maxsize, ttl=config.cache_ttl
            )
        self.admission = AdmissionController(
            capacity=config.admission_capacity,
            queue_limit=config.admission_queue,
            queue_timeout=config.admission_timeout,
        )
        self.store_breaker = CircuitBreaker(
            name="job-store",
            failure_threshold=config.breaker_threshold,
            window=config.breaker_window,
            recovery_time=config.breaker_recovery,
            on_transition=self._on_breaker_transition,
        )
        self._init_metrics()
        self._owns_state_dir = config.state_dir is None
        self.state_dir = (config.state_dir or
                          tempfile.mkdtemp(prefix="bandwidth-wall-jobs-"))
        self.job_manager = JobManager(
            self.state_dir,
            workers=config.job_workers,
            lease_ttl=config.job_lease_ttl,
            on_chunk=lambda seconds: self.jobs_chunk_latency.observe(
                seconds
            ),
            fault_injector=self.fault_injector,
        )
        self.job_manager.start()
        # (method, compiled path pattern, handler, route label)
        self._routes: List[Tuple[str, Any, Callable, str]] = [
            ("GET", re.compile(r"^/healthz$"), self._handle_healthz,
             "/healthz"),
            ("GET", re.compile(r"^/metrics$"), self._handle_metrics,
             "/metrics"),
            ("POST", re.compile(r"^/v1/solve$"), self._handle_solve,
             "/v1/solve"),
            ("POST", re.compile(r"^/v1/sweep$"), self._handle_sweep,
             "/v1/sweep"),
            ("GET", re.compile(r"^/v1/experiments$"),
             self._handle_experiments, "/v1/experiments"),
            ("GET", re.compile(r"^/v1/experiments/(?P<eid>[^/]+)$"),
             self._handle_experiment, "/v1/experiments/{id}"),
            ("POST", re.compile(r"^/v1/jobs$"), self._handle_job_submit,
             "/v1/jobs"),
            ("GET", re.compile(r"^/v1/jobs$"), self._handle_job_list,
             "/v1/jobs"),
            ("GET", re.compile(r"^/v1/jobs/(?P<jid>[^/]+)$"),
             self._handle_job_get, "/v1/jobs/{id}"),
            ("DELETE", re.compile(r"^/v1/jobs/(?P<jid>[^/]+)$"),
             self._handle_job_cancel, "/v1/jobs/{id}"),
            ("POST", re.compile(r"^/v1/optimize$"),
             self._handle_optimize_submit, "/v1/optimize"),
            ("GET", re.compile(r"^/v1/optimize/(?P<jid>[^/]+)$"),
             self._handle_optimize_get, "/v1/optimize/{id}"),
            ("POST", re.compile(r"^/v1/traces$"),
             self._handle_trace_submit, "/v1/traces"),
            ("GET", re.compile(r"^/v1/traces/(?P<jid>[^/]+)$"),
             self._handle_trace_get, "/v1/traces/{id}"),
        ]

    @staticmethod
    def _build_injector(config: ServiceConfig) -> Optional[FaultInjector]:
        if config.fault_profile:
            return FaultInjector(load_profile(config.fault_profile))
        return injector_from_env()

    def _on_breaker_transition(self, from_state: str,
                               to_state: str) -> None:
        # Fires from inside the breaker lock; the counter is lock-free
        # enough (its own lock) that this cannot deadlock.
        self.breaker_transitions.inc(**{
            "dependency": "job-store",
            "from": from_state,
            "to": to_state,
        })

    def _init_metrics(self) -> None:
        registry = MetricsRegistry()
        self.metrics = registry
        self.requests_total = registry.counter(
            "service_requests_total",
            "HTTP requests handled, by route, method and status.",
            ("route", "method", "status"),
        )
        self.request_latency = registry.histogram(
            "service_request_duration_seconds",
            "Request handling latency in seconds, by route.",
            ("route",),
        )
        self.inflight = registry.gauge(
            "service_inflight_requests",
            "Requests currently being handled.",
        )
        registry.gauge(
            "service_uptime_seconds",
            "Seconds since this service instance started.",
            callback=lambda: time.monotonic() - self.started_monotonic,
        )
        cache_stats = self.response_cache.stats
        registry.gauge(
            "service_response_cache_hits_total",
            "Response-cache lookups served from a stored response.",
            callback=lambda: cache_stats().hits,
        )
        registry.gauge(
            "service_response_cache_misses_total",
            "Response-cache lookups that computed a fresh response.",
            callback=lambda: cache_stats().misses,
        )
        registry.gauge(
            "service_response_cache_coalesced_total",
            "Requests that joined an identical in-flight computation.",
            callback=lambda: cache_stats().coalesced,
        )
        registry.gauge(
            "service_response_cache_evictions_total",
            "Responses evicted by the LRU bound.",
            callback=lambda: cache_stats().evictions,
        )
        registry.gauge(
            "service_response_cache_expirations_total",
            "Responses dropped because their TTL elapsed.",
            callback=lambda: cache_stats().expirations,
        )
        registry.gauge(
            "service_response_cache_size",
            "Responses currently stored.",
            callback=lambda: cache_stats().size,
        )
        registry.gauge(
            "service_response_cache_hit_rate",
            "Fraction of lookups served without computing (hit+coalesced).",
            callback=lambda: cache_stats().hit_rate,
        )
        registry.gauge(
            "solve_memo_hits_total",
            "Solve-memo lookups served from cache (process-wide).",
            callback=lambda: memo.stats_snapshot().hits,
        )
        registry.gauge(
            "solve_memo_misses_total",
            "Solve-memo lookups that ran the bisection (process-wide).",
            callback=lambda: memo.stats_snapshot().misses,
        )
        registry.gauge(
            "solve_memo_size",
            "Distinct solves currently memoized (process-wide).",
            callback=lambda: memo.stats_snapshot().size,
        )
        registry.gauge(
            "solve_memo_hit_rate",
            "Fraction of solve lookups served from the memo.",
            callback=lambda: memo.stats_snapshot().hit_rate,
        )
        # Resilience.  Shed/deadline counters are bumped on the request
        # path; breaker state is a live per-dependency gauge.
        self.shed_total = registry.counter(
            "resilience_shed_total",
            "Requests shed by admission control, by reason.",
            ("reason",),
        )
        self.deadline_exceeded_total = registry.counter(
            "request_deadline_exceeded_total",
            "Requests that outlived their deadline, by route.",
            ("route",),
        )
        self.breaker_transitions = registry.counter(
            "resilience_breaker_transitions_total",
            "Circuit-breaker state transitions, by dependency and edge.",
            ("dependency", "from", "to"),
        )
        breaker_state = registry.gauge(
            "resilience_breaker_state",
            "Breaker state per dependency: 0 closed, 1 half-open, 2 open.",
            ("dependency",),
        )
        breaker_state.set_callback(
            self.store_breaker.state_value, dependency="job-store"
        )
        registry.gauge(
            "resilience_breaker_opened_total",
            "Times the job-store breaker has tripped open.",
            callback=lambda: self.store_breaker.snapshot()["opened_total"],
        )
        registry.gauge(
            "resilience_admission_active",
            "Expensive requests currently holding an admission slot.",
            callback=self.admission.active,
        )
        registry.gauge(
            "resilience_admission_waiting",
            "Expensive requests currently queued for admission.",
            callback=self.admission.waiting,
        )
        # Job subsystem.  Backlog/liveness gauges read the durable
        # store at scrape time, so external workers pointed at the same
        # state dir are reflected too.
        self.jobs_submitted = registry.counter(
            "jobs_submitted_total",
            "Jobs accepted via POST /v1/jobs, by kind.",
            ("kind",),
        )
        self.jobs_chunk_latency = registry.histogram(
            "jobs_chunk_duration_seconds",
            "Wall seconds per executed job chunk (in-process workers).",
        )
        # A faulty or injected store must not take the whole scrape
        # page down with it: broken callbacks render NaN, not a 500.
        def store_gauge(read: Callable[[], float]) -> Callable[[], float]:
            def safe() -> float:
                try:
                    return float(read())
                except Exception:  # noqa: BLE001 - scrape must survive
                    return float("nan")
            return safe

        registry.gauge(
            "jobs_queue_depth",
            "Claimable jobs: queued plus expired-lease running.",
            callback=store_gauge(
                lambda: self.job_manager.store.queue_depth()),
        )
        registry.gauge(
            "jobs_running",
            "Jobs currently executing under a live lease.",
            callback=store_gauge(
                lambda: self.job_manager.store.running_count()),
        )
        registry.gauge(
            "jobs_retries_total",
            "Chunk-failure retries recorded across all jobs.",
            callback=store_gauge(
                lambda: self.job_manager.store.retries_total()),
        )
        registry.gauge(
            "jobs_succeeded_total",
            "Jobs that finished with a complete artifact.",
            callback=store_gauge(
                lambda: self.job_manager.store.counts()["succeeded"]),
        )
        registry.gauge(
            "jobs_failed_total",
            "Jobs that exhausted their retry budget.",
            callback=store_gauge(
                lambda: self.job_manager.store.counts()["failed"]),
        )
        registry.gauge(
            "jobs_cancelled_total",
            "Jobs cancelled before completing.",
            callback=store_gauge(
                lambda: self.job_manager.store.counts()["cancelled"]),
        )
        registry.gauge(
            "jobs_workers_alive",
            "In-process job worker threads currently alive.",
            callback=lambda: self.job_manager.workers_alive(),
        )
        # Optimizer subsystem (POST /v1/optimize).
        self.optimize_submitted = registry.counter(
            "optimize_jobs_submitted_total",
            "Optimize jobs accepted via POST /v1/optimize, by strategy.",
            ("strategy",),
        )
        self.optimize_evaluations = registry.counter(
            "optimize_evaluations_budgeted_total",
            "Design-point evaluations budgeted by accepted optimize "
            "jobs (valid configurations, or generations x population).",
        )
        optimize_jobs = registry.gauge(
            "optimize_jobs",
            "Optimize jobs in the store, by status.",
            ("status",),
        )
        def optimize_status_gauge(status: str) -> Callable[[], float]:
            return store_gauge(
                lambda: self.job_manager.store
                .kind_status_counts("optimize")[status])

        for status in ("queued", "running", "succeeded", "failed",
                       "cancelled"):
            optimize_jobs.set_callback(optimize_status_gauge(status),
                                       status=status)
        # Trace-simulation subsystem (POST /v1/traces).
        self.traces_submitted = registry.counter(
            "traces_jobs_submitted_total",
            "Trace jobs accepted via POST /v1/traces, by source.",
            ("source",),
        )
        self.traces_accesses = registry.counter(
            "traces_accesses_budgeted_total",
            "Simulated memory accesses budgeted by accepted trace jobs.",
        )
        trace_jobs = registry.gauge(
            "traces_jobs",
            "Trace jobs in the store, by status.",
            ("status",),
        )

        def trace_status_gauge(status: str) -> Callable[[], float]:
            return store_gauge(
                lambda: self.job_manager.store
                .kind_status_counts("trace")[status])

        for status in ("queued", "running", "succeeded", "failed",
                       "cancelled"):
            trace_jobs.set_callback(trace_status_gauge(status),
                                    status=status)
    # -- dispatch ------------------------------------------------------

    def dispatch(self, method: str, target: str, body: bytes,
                 headers: Optional[Any] = None) -> Response:
        """Route one request, instrumenting latency/counters/in-flight.

        ``headers`` is any mapping with ``.get`` (the stdlib handler's
        message object or a plain dict); only ``X-Request-Deadline-Ms``
        is consulted.  The request runs inside a thread-local deadline
        scope and, for expensive routes, under admission control.
        """
        split = urlsplit(target)
        path = split.path
        query = parse_qs(split.query)
        route_label = path
        started = time.monotonic()
        self.inflight.inc()
        response: Optional[Response] = None
        try:
            try:
                deadline = self._request_deadline(headers)
                route = self._match(method, path)
                if route is None:
                    raise self._unknown_route(method, path)
                pattern_match, handler, route_label = route
                cost = (EXPENSIVE if (method, route_label) in
                        EXPENSIVE_ROUTES else CHEAP)
                with deadline_scope(deadline):
                    try:
                        with self.admission.admit(cost, deadline=deadline):
                            check_deadline("admission")
                            response = handler(pattern_match, query, body)
                    except SaturatedError as error:
                        self.shed_total.inc(reason=error.reason)
                        raise TooManyRequestsError(
                            str(error), {"reason": error.reason},
                            retry_after=error.retry_after,
                        ) from None
            except (DeadlineExceeded, FlightWaitTimeout) as error:
                self.deadline_exceeded_total.inc(route=route_label)
                response = self._error_response(
                    DeadlineExceededError(str(error))
                )
            except BreakerOpenError as error:
                response = self._error_response(CircuitOpenError(
                    str(error), retry_after=error.retry_after
                ))
            except ApiError as error:
                response = self._error_response(error)
            except Exception as error:  # noqa: BLE001 - service boundary
                response = self._error_response(ApiError(
                    f"internal error: {type(error).__name__}: {error}"
                ))
            return response
        finally:
            elapsed = time.monotonic() - started
            self.inflight.dec()
            status = str(response.status) if response is not None else "500"
            self.requests_total.inc(
                route=route_label, method=method, status=status
            )
            self.request_latency.observe(elapsed, route=route_label)

    def route_cost(self, method: str, path: str) -> str:
        """Cost class for a path — the transport uses this to let cheap
        requests bypass the worker-slot semaphore entirely."""
        for route_method, pattern, _, label in self._routes:
            if route_method == method and pattern.match(path):
                return (EXPENSIVE if (method, label) in EXPENSIVE_ROUTES
                        else CHEAP)
        return CHEAP

    def _request_deadline(self,
                          headers: Optional[Any]) -> Optional[Deadline]:
        value = None
        if headers is not None:
            value = headers.get(DEADLINE_HEADER)
            if value is None and hasattr(headers, "keys"):
                # Plain dicts are case-sensitive; accept the lowercase
                # spelling tests and proxies tend to produce.
                value = headers.get(DEADLINE_HEADER.lower())
        if value is None:
            if self.config.default_deadline_ms is not None:
                return Deadline(self.config.default_deadline_ms / 1000.0)
            return None
        try:
            return deadline_from_ms(value)
        except ValueError as error:
            raise ValidationError(
                [FieldError(DEADLINE_HEADER, str(error))],
                "invalid deadline header",
            ) from None

    def _match(self, method: str, path: str):
        allowed: List[str] = []
        for route_method, pattern, handler, label in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method == method:
                return match, handler, label
            allowed.append(route_method)
        if allowed:
            raise MethodNotAllowedError(
                f"{method} not allowed on {path}",
                {"allowed": sorted(set(allowed))},
            )
        return None

    def _unknown_route(self, method: str, path: str) -> NotFoundError:
        return NotFoundError(
            f"no route for {method} {path}",
            {"routes": sorted({f"{m} {label}"
                               for m, _, _, label in self._routes})},
        )

    # -- handlers ------------------------------------------------------

    def _handle_healthz(self, match, query, body) -> Response:
        draining = self.draining.is_set()
        # A broken store must not take liveness down with it — the
        # whole point of /healthz is answering while things burn.
        try:
            jobs: Dict[str, Any] = self.job_manager.stats()
        except Exception as error:  # noqa: BLE001 - liveness survives
            jobs = {"error": f"{type(error).__name__}: {error}"}
        resilience: Dict[str, Any] = {
            "admission": self.admission.snapshot(),
            "breakers": [self.store_breaker.snapshot()],
        }
        if self.fault_injector is not None:
            resilience["fault_injection"] = self.fault_injector.stats()
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "experiments": len(self._experiment_ids()),
            "jobs": jobs,
            "resilience": resilience,
        }
        if self.config.processes > 1:
            payload["scaleout"] = {"pid": os.getpid(),
                                   "processes": self.config.processes}
        return self._json_response(payload, status=503 if draining else 200)

    def _handle_metrics(self, match, query, body) -> Response:
        return Response(200, self.metrics.render().encode("utf-8"), _PROM)

    @staticmethod
    def _flight_wait() -> Optional[float]:
        """Cap a coalesced wait at the request's remaining deadline."""
        deadline = current_deadline()
        return deadline.remaining() if deadline is not None else None

    def _handle_solve(self, match, query, body) -> Response:
        request = validate_solve_request(self._parse_json(body))
        key = ("solve", request)
        try:
            payload, _ = self.response_cache.get_or_compute(
                key, lambda: scenario_payload(solve_scenario(request)),
                wait_timeout=self._flight_wait(),
            )
        except (BracketError, ValueError, OverflowError) as error:
            # OverflowError: an alpha so steep the traffic model leaves
            # float range has no representable solution either.
            raise UnsolvableError(str(error)) from None
        return self._json_response(payload)

    def _handle_sweep(self, match, query, body) -> Response:
        request = validate_sweep_request(self._parse_json(body))
        key = ("sweep", request)
        try:
            payload, _ = self.response_cache.get_or_compute(
                key, lambda: self._compute_sweep(request),
                wait_timeout=self._flight_wait(),
            )
        except (BracketError, ValueError, OverflowError) as error:
            raise UnsolvableError(str(error)) from None
        return self._json_response(payload)

    def _compute_sweep(self, request: SweepRequest) -> Dict[str, Any]:
        from ..experiments.engine import GridPoint, sweep_grid

        effect, labels = ScenarioRequest(
            techniques=request.techniques
        ).combined_effect()
        model = BandwidthWallModel(paper_baseline_design(),
                                   alpha=request.alpha)
        points = [
            GridPoint(total_ceas=ceas, traffic_budget=budget, effect=effect)
            for ceas in request.ceas
            for budget in request.budgets
        ]
        solutions = sweep_grid(model, points)
        rows = [
            {
                "ceas": point.total_ceas,
                "budget": point.traffic_budget,
                "cores": solution.cores,
                "continuous_cores": solution.continuous_cores,
                "core_area_share": solution.core_area_share,
                "effective_cache_per_core":
                    solution.effective_cache_per_core,
                "area_limited": solution.area_limited,
            }
            for point, solution in zip(points, solutions)
        ]
        return {
            "request": {
                "ceas": list(request.ceas),
                "budgets": list(request.budgets),
                "alpha": request.alpha,
                "techniques": list(request.techniques),
            },
            "techniques": list(labels),
            "count": len(rows),
            "points": rows,
        }

    def _handle_experiments(self, match, query, body) -> Response:
        from ..experiments.runner import experiment_title

        ids = self._experiment_ids()
        payload = {
            "count": len(ids),
            "experiments": [
                {"id": eid, "title": experiment_title(eid)} for eid in ids
            ],
        }
        return self._json_response(payload)

    def _handle_experiment(self, match, query, body) -> Response:
        from ..experiments.runner import (
            experiment_payload,
            resolve_experiment_id,
        )

        raw_id = unquote(match.group("eid"))
        try:
            key = resolve_experiment_id(raw_id)
        except KeyError:
            raise NotFoundError(
                f"unknown experiment {raw_id!r}",
                {"valid_ids": self._experiment_ids()},
            ) from None
        include_report = self._flag(query, "report")
        payload, _ = self.response_cache.get_or_compute(
            ("experiment", key, include_report),
            lambda: experiment_payload(key, include_report=include_report),
            wait_timeout=self._flight_wait(),
        )
        return self._json_response(payload)

    # -- job handlers --------------------------------------------------

    def _store_call(self, func: Callable, *args: Any,
                    **kwargs: Any) -> Any:
        """Run a job-store-backed call under the circuit breaker.

        Breaker-open refusals surface as 503 ``circuit_open`` (handled
        in dispatch); store faults count against the breaker window and
        surface as 503 ``store_unavailable``.
        """
        try:
            return self.store_breaker.call(func, *args, **kwargs)
        except BreakerOpenError:
            raise
        except (sqlite3.Error, OSError) as error:
            raise StoreUnavailableError(
                f"job store unavailable: {error}"
            ) from None

    def _handle_job_submit(self, match, query, body) -> Response:
        if self.draining.is_set():
            raise ServiceDrainingError(
                "service is draining; job submissions are not accepted"
            )
        request = validate_job_request(self._parse_json(body))
        record = self._store_call(
            self.job_manager.submit,
            request.spec, max_attempts=request.max_attempts,
        )
        self.jobs_submitted.inc(kind=record.kind)
        return self._json_response(self._job_payload(record), status=202)

    def _handle_job_list(self, match, query, body) -> Response:
        status = None
        values = query.get("status", [])
        if values:
            status = values[-1].lower()
            if status not in STATUSES:
                raise ValidationError([FieldError(
                    "status",
                    f"must be one of {sorted(STATUSES)}, got {status!r}",
                )])
        records = self._store_call(self.job_manager.list_jobs,
                                   status=status)
        return self._json_response({
            "count": len(records),
            "jobs": [self._job_payload(record, include_result=False)
                     for record in records],
        })

    def _handle_job_get(self, match, query, body) -> Response:
        record = self._job_record(match)
        return self._json_response(self._job_payload(record))

    def _handle_job_cancel(self, match, query, body) -> Response:
        record = self._job_record(match)
        if record.status in (SUCCEEDED, FAILED):
            raise ConflictError(
                f"job {record.id} already {record.status}; "
                f"only queued or running jobs can be cancelled",
                {"status": record.status},
            )
        record = self._store_call(self.job_manager.cancel, record.id)
        return self._json_response(
            self._job_payload(record, include_result=False)
        )

    def _handle_optimize_submit(self, match, query, body) -> Response:
        if self.draining.is_set():
            raise ServiceDrainingError(
                "service is draining; optimize submissions are not "
                "accepted"
            )
        request = validate_optimize_request(self._parse_json(body))
        record = self._store_call(
            self.job_manager.submit,
            request.spec, max_attempts=request.max_attempts,
        )
        self.jobs_submitted.inc(kind=record.kind)
        self.optimize_submitted.inc(strategy=request.spec.strategy)
        self.optimize_evaluations.inc(request.num_evaluations)
        return self._json_response(self._job_payload(record), status=202)

    def _handle_optimize_get(self, match, query, body) -> Response:
        record = self._job_record(match)
        if record.kind != "optimize":
            raise NotFoundError(
                f"job {record.id!r} is a {record.kind} job, not an "
                f"optimize job; fetch it via GET /v1/jobs/{record.id}"
            )
        return self._json_response(self._job_payload(record))

    def _handle_trace_submit(self, match, query, body) -> Response:
        if self.draining.is_set():
            raise ServiceDrainingError(
                "service is draining; trace submissions are not accepted"
            )
        request = validate_trace_request(self._parse_json(body))
        record = self._store_call(
            self.job_manager.submit,
            request.spec, max_attempts=request.max_attempts,
        )
        self.jobs_submitted.inc(kind=record.kind)
        self.traces_submitted.inc(source=request.source)
        self.traces_accesses.inc(request.total_accesses)
        return self._json_response(self._job_payload(record), status=202)

    def _handle_trace_get(self, match, query, body) -> Response:
        record = self._job_record(match)
        if record.kind != "trace":
            raise NotFoundError(
                f"job {record.id!r} is a {record.kind} job, not a "
                f"trace job; fetch it via GET /v1/jobs/{record.id}"
            )
        return self._json_response(self._job_payload(record))

    def _job_record(self, match) -> JobRecord:
        job_id = unquote(match.group("jid"))
        record = self._store_call(self.job_manager.get, job_id)
        if record is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return record

    @staticmethod
    def _job_payload(record: JobRecord,
                     include_result: bool = True) -> Dict[str, Any]:
        """One job's API shape: status + progress (+ result when done)."""
        payload: Dict[str, Any] = {
            "id": record.id,
            "kind": record.kind,
            "status": record.status,
            "cancel_requested": record.cancel_requested,
            "spec": record.spec,
            "progress": {
                "chunks_done": record.chunks_done,
                "chunks_total": record.chunks_total,
                "fraction": record.progress,
            },
            "attempts": record.attempts,
            "retries": record.failures,
            "max_attempts": record.max_attempts,
            "created_at": record.created_at,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
            "error": record.error,
        }
        if include_result and record.status == SUCCEEDED \
                and record.result_text is not None:
            # The stored artifact is golden-encoded (bare NaN allowed);
            # strictify here so the HTTP payload stays valid JSON.
            payload["result"] = strict_jsonable(
                json.loads(record.result_text)
            )
        return payload

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _experiment_ids() -> List[str]:
        from ..experiments.runner import experiment_ids

        return experiment_ids()

    @staticmethod
    def _flag(query: Dict[str, List[str]], name: str) -> bool:
        values = query.get(name, [])
        return bool(values) and values[-1].lower() not in ("0", "false", "no")

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        if not body:
            return {}
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(
                [FieldError("$", f"body is not valid JSON: {error}")],
                "request body must be JSON",
            ) from None

    @staticmethod
    def _json_response(payload: Any, status: int = 200) -> Response:
        text = dumps_strict(payload, indent=2) + "\n"
        return Response(status, text.encode("utf-8"), _JSON)

    def _error_response(self, error: ApiError) -> Response:
        response = self._json_response(error.payload(),
                                       status=error.status)
        if error.retry_after is not None:
            response = dataclasses.replace(response, headers=(
                ("Retry-After", str(max(1, int(error.retry_after + 0.5)))),
            ))
        return response

    # -- lifecycle -----------------------------------------------------

    def shutdown_jobs(self, deadline: float = 10.0) -> bool:
        """Drain the worker pool: in-flight jobs checkpoint their
        current chunk and return to the queue, resumable on next boot.

        Returns True when every worker thread exited in time.  The
        auto-created temporary state dir is removed only after a clean
        drain — never out from under a live worker.
        """
        stopped = self.job_manager.stop(deadline)
        if stopped and self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        return stopped


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default backlog of 5 drops connections when a
    # burst of clients connects at once; the worker semaphore, not the
    # accept queue, is the intended concurrency limit.
    request_queue_size = 128

    def __init__(self, address, handler_class,
                 service: BandwidthWallService, *,
                 inherited_socket: Optional[socket.socket] = None) -> None:
        if inherited_socket is None:
            super().__init__(address, handler_class)
        else:
            # Pre-fork scale-out: adopt an externally bound listening
            # socket (SO_REUSEPORT sibling or the supervisor's fd)
            # instead of binding our own.
            super().__init__(address, handler_class,
                             bind_and_activate=False)
            self.socket.close()  # the unbound default, ours to close
            self.socket = inherited_socket
            self.server_address = inherited_socket.getsockname()
            host, port = self.server_address[:2]
            self.server_name = socket.getfqdn(host)
            self.server_port = port
            self.server_activate()
        self.service = service
        self.worker_slots = threading.BoundedSemaphore(
            service.config.workers
        )


class _RequestHandler(BaseHTTPRequestHandler):
    server_version = "bandwidth-wall-service/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        service: BandwidthWallService = self.server.service
        try:
            body = self._read_body()
        except ApiError as error:
            self._send(service._error_response(error))
            return
        # Cheap routes bypass the worker semaphore: /healthz and job
        # polling must answer fast even when every slot is occupied by
        # multi-second sweeps (that's what admission control bounds).
        if service.route_cost(method, urlsplit(self.path).path) == CHEAP:
            response = service.dispatch(method, self.path, body,
                                        self.headers)
        else:
            with self.server.worker_slots:
                response = service.dispatch(method, self.path, body,
                                            self.headers)
        self._send(response)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise PayloadTooLargeError(
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _send(self, response: Response) -> None:
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # access logging is the metrics endpoint's job


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class RunningService:
    """A bound, listening service instance (in-process)."""

    def __init__(self, service: BandwidthWallService,
                 server: _ServiceHTTPServer) -> None:
        self.service = service
        self.server = server
        self._stopped = False
        self._drain_result = False
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="service-accept", daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def client(self, timeout: float = 30.0):
        from .client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout)

    def drain_and_stop(self,
                       deadline: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, drain requests and jobs.

        HTTP first (stop the accept loop, let in-flight requests
        finish), then the job workers — each checkpoints its current
        chunk and releases its lease, so every in-flight job resumes
        from where it stopped on the next boot.  Returns True when both
        drained before the deadline; stragglers (daemon threads) are
        abandoned otherwise.  Idempotent.
        """
        if deadline is None:
            deadline = self.service.config.drain_deadline
        if self._stopped:
            return self._drain_result
        self._stopped = True
        self.service.draining.set()
        self.server.shutdown()
        self._thread.join(timeout=max(deadline, 0.1))
        drained = self._wait_for_idle(deadline)
        jobs_drained = self.service.shutdown_jobs(deadline)
        self.server.server_close()
        self._drain_result = drained and jobs_drained
        return self._drain_result

    def _wait_for_idle(self, deadline: float) -> bool:
        limit = time.monotonic() + deadline
        while self.service.inflight.value() > 0:
            if time.monotonic() >= limit:
                return False
            time.sleep(0.02)
        return True


def start_service(config: ServiceConfig = ServiceConfig(),
                  *, port: Optional[int] = None) -> RunningService:
    """Bind and start serving in background threads; returns the handle.

    ``port=0`` (or a config with port 0) binds an ephemeral port —
    read the actual one from the returned handle.
    """
    if port is not None:
        config = dataclasses.replace(config, port=port)
    service = BandwidthWallService(config)
    server = _ServiceHTTPServer(
        (config.host, config.port), _RequestHandler, service
    )
    return RunningService(service, server)


def serve(config: ServiceConfig = ServiceConfig()) -> int:
    """Blocking entry point behind ``bandwidth-wall serve``.

    Installs SIGTERM/SIGINT handlers that trigger a graceful drain;
    returns 0 on a clean (fully drained) shutdown, 1 otherwise.

    ``processes > 1`` hands off to the pre-fork supervisor — N forked
    copies of this service behind one port and one job store.
    """
    if config.processes > 1:
        from ..scaleout.prefork import serve_prefork

        return serve_prefork(config)
    try:
        running = start_service(config)
    except OSError as error:
        print(f"cannot bind {config.host}:{config.port}: {error}",
              file=sys.stderr)
        return 1

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, request_stop)
    print(f"bandwidth-wall service listening on {running.url} "
          f"({config.workers} workers, cache ttl {config.cache_ttl:g}s, "
          f"{config.job_workers} job workers, "
          f"state dir {running.service.state_dir})",
          flush=True)
    injector = running.service.fault_injector
    if injector is not None:
        print(f"FAULT INJECTION ACTIVE: profile "
              f"{injector.profile.name!r} (seed {injector.profile.seed})",
              flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    drained = running.drain_and_stop()
    print("bandwidth-wall service stopped"
          + ("" if drained else " (drain deadline exceeded)"), flush=True)
    return 0 if drained else 1
