"""Pure-python client for the bandwidth-wall service.

Stdlib-only (``http.client``), thread-safe by construction — each
request opens its own connection — and used by the test suite, the
closed-loop load benchmark and the CI smoke check.  Error responses
raise :class:`ServiceError` carrying the decoded error envelope, so
callers assert on ``error.code``/``error.field_errors`` instead of
string-matching bodies.

Idempotent GETs (``healthz``, ``metrics_text``, job polling) retry
with bounded exponential backoff on connection errors, so a service
restart mid-poll degrades to a short stall instead of an exception;
mutating requests never retry implicitly.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["ServiceClient", "ServiceError", "IDEMPOTENT_RETRIES"]

#: Extra attempts (beyond the first) for idempotent GETs that hit a
#: connection error; delay doubles from 50ms per retry.
IDEMPOTENT_RETRIES = 2
_RETRY_BACKOFF = 0.05


class ServiceError(Exception):
    """A non-2xx response, with the structured error payload attached."""

    def __init__(self, status: int, payload: Any) -> None:
        body = payload.get("error", {}) if isinstance(payload, dict) else {}
        super().__init__(
            f"HTTP {status}: {body.get('message', 'unknown error')}"
        )
        self.status = status
        self.payload = payload
        self.code = body.get("code", "unknown")
        self.detail = body.get("detail", {})

    @property
    def field_errors(self) -> List[Dict[str, str]]:
        """Field-level validation problems (empty for non-400s)."""
        return self.detail.get("errors", [])


class ServiceClient:
    """Typed access to every service endpoint.

    ``retry_budget`` caps the *total* wall time one logical request may
    spend across retries and backoff sleeps (default: ``timeout``), so
    a retrying GET can never outlive the deadline its caller planned
    for.  ``deadline_ms`` (optional) is sent as the service's
    ``X-Request-Deadline-Ms`` header on every request, propagating the
    client's patience to the server's cooperative-cancellation checks.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8100,
                 *, timeout: float = 30.0,
                 retry_budget: Optional[float] = None,
                 deadline_ms: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_budget = timeout if retry_budget is None else retry_budget
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be non-negative, got {retry_budget}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        self.deadline_ms = deadline_ms

    # -- transport -----------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[Any] = None,
                *, retries: int = 0) -> Tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, raw body bytes)``.

        ``retries`` allows that many extra attempts after a connection
        error (refused, reset, unreachable), with exponential backoff —
        bounded jointly by the attempt count and ``retry_budget``:
        a retry whose backoff sleep would overrun the budget is not
        taken, and the connection error propagates instead.  Only pass
        ``retries`` for idempotent requests — the default of 0 keeps
        POST/DELETE single-shot.
        """
        attempt = 0
        started = time.monotonic()
        while True:
            try:
                return self._request_once(method, path, body)
            except (ConnectionError, socket.error):
                if attempt >= retries:
                    raise
                delay = _RETRY_BACKOFF * (2 ** attempt)
                elapsed = time.monotonic() - started
                if elapsed + delay > self.retry_budget:
                    raise
                time.sleep(delay)
                attempt += 1

    def _request_once(self, method: str, path: str,
                      body: Optional[Any]) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            encoded = None
            headers = {}
            if body is not None:
                encoded = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if self.deadline_ms is not None:
                headers["X-Request-Deadline-Ms"] = \
                    f"{self.deadline_ms:g}"
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def request_json(self, method: str, path: str,
                     body: Optional[Any] = None,
                     *, retries: int = 0) -> Any:
        """One exchange, decoded; raises :class:`ServiceError` on non-2xx."""
        status, raw = self.request(method, path, body, retries=retries)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": {"code": "undecodable",
                                 "message": raw[:200].decode("latin-1")}}
        if not 200 <= status < 300:
            raise ServiceError(status, payload)
        return payload

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self.request_json("GET", "/healthz",
                                 retries=IDEMPOTENT_RETRIES)

    def metrics_text(self) -> str:
        status, raw = self.request("GET", "/metrics",
                                   retries=IDEMPOTENT_RETRIES)
        if status != 200:
            raise ServiceError(status, {})
        return raw.decode("utf-8")

    def solve(self, *, ceas: float = 32.0, alpha: float = 0.5,
              budget: float = 1.0,
              techniques: Sequence[str] = ()) -> Dict[str, Any]:
        return self.request_json("POST", "/v1/solve", {
            "ceas": ceas, "alpha": alpha, "budget": budget,
            "techniques": list(techniques),
        })

    def solve_raw(self, payload: Any) -> Tuple[int, bytes]:
        """Unvalidated solve POST — byte-level tests use this."""
        return self.request("POST", "/v1/solve", payload)

    def sweep(self, *, ceas: Union[float, Sequence[float]],
              budgets: Union[float, Sequence[float], None] = None,
              alpha: float = 0.5,
              techniques: Sequence[str] = ()) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "ceas": list(ceas) if isinstance(ceas, (list, tuple)) else ceas,
            "alpha": alpha,
            "techniques": list(techniques),
        }
        if budgets is not None:
            body["budgets"] = (list(budgets)
                               if isinstance(budgets, (list, tuple))
                               else budgets)
        return self.request_json("POST", "/v1/sweep", body)

    def experiments(self) -> Dict[str, Any]:
        return self.request_json("GET", "/v1/experiments")

    def experiment(self, experiment_id: str,
                   *, report: bool = False) -> Dict[str, Any]:
        path = "/v1/experiments/" + urllib.parse.quote(
            experiment_id, safe="")
        if report:
            path += "?report=1"
        return self.request_json("GET", path)

    # -- jobs ----------------------------------------------------------

    def submit_job(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs`` with a job body whose ``kind`` names one of
        ``repro.jobs.spec.KINDS`` (202 on accept); :meth:`job` reads
        its status and, once it succeeded, its result."""
        return self.request_json("POST", "/v1/jobs", body)

    def jobs(self, status: Optional[str] = None) -> Dict[str, Any]:
        path = "/v1/jobs"
        if status is not None:
            path += "?status=" + urllib.parse.quote(status, safe="")
        return self.request_json("GET", path, retries=IDEMPOTENT_RETRIES)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request_json("GET", self._job_path(job_id),
                                 retries=IDEMPOTENT_RETRIES)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        return self.request_json("DELETE", self._job_path(job_id))

    def wait_for_job(self, job_id: str, *, timeout: float = 120.0,
                     poll_interval: float = 0.2) -> Dict[str, Any]:
        """Poll one job until it reaches a terminal status.

        Returns the terminal payload (``status`` is ``succeeded``,
        ``failed`` or ``cancelled`` — the caller decides what each
        means); raises TimeoutError when time runs out first.
        """
        deadline = time.monotonic() + timeout
        payload = self.job(job_id)
        while payload["status"] not in ("succeeded", "failed", "cancelled"):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['status']} "
                    f"({payload['progress']['chunks_done']}/"
                    f"{payload['progress']['chunks_total']} chunks) "
                    f"after {timeout:g}s"
                )
            time.sleep(poll_interval)
            payload = self.job(job_id)
        return payload

    @staticmethod
    def _job_path(job_id: str) -> str:
        return "/v1/jobs/" + urllib.parse.quote(job_id, safe="")

    # -- readiness -----------------------------------------------------

    def wait_until_ready(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Poll ``/healthz`` until the service answers or time runs out."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (ConnectionError, socket.error, ServiceError,
                    http.client.HTTPException) as error:
                last_error = error
                time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not ready after "
            f"{timeout:g}s: {last_error}"
        )
