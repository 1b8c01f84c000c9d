"""Dispatch-level resilience semantics: 429, 503, 504, and metrics.

These tests exercise :meth:`BandwidthWallService.dispatch` directly —
no sockets — so they can pin the *latency* guarantees the acceptance
criteria name (cheap requests answer fast while the expensive tier is
saturated; breaker-open rejections are near-instant) without flaking
on HTTP scheduling.
"""

import json
import time

import pytest

from repro.resilience.admission import EXPENSIVE
from repro.resilience.deadline import DEADLINE_HEADER
from repro.service.app import BandwidthWallService, ServiceConfig

CHEAP_IDS = ["fig13", "ext-amdahl"]
SWEEP_BODY = json.dumps({
    "ceas": [16.0, 32.0, 64.0],
    "budgets": [1.0, 2.0],
    "alpha": 0.45,
    "techniques": ["DRAM=8"],
}).encode("utf-8")


def body_of(response):
    return json.loads(response.body.decode("utf-8"))


def header(response, name):
    for key, value in response.headers:
        if key == name:
            return value
    return None


@pytest.fixture()
def service(tmp_path):
    instance = BandwidthWallService(ServiceConfig(
        workers=2, job_workers=0, state_dir=str(tmp_path),
    ))
    yield instance
    instance.shutdown_jobs()


class TestDeadlines:
    def test_sweep_past_deadline_returns_504(self, service):
        response = service.dispatch(
            "POST", "/v1/sweep", SWEEP_BODY,
            headers={DEADLINE_HEADER: "0.001"},
        )
        assert response.status == 504
        assert body_of(response)["error"]["code"] == "deadline_exceeded"

    def test_generous_deadline_still_succeeds(self, service):
        response = service.dispatch(
            "POST", "/v1/sweep", SWEEP_BODY,
            headers={DEADLINE_HEADER: "30000"},
        )
        assert response.status == 200

    def test_invalid_deadline_header_is_400(self, service):
        response = service.dispatch(
            "POST", "/v1/solve", b"{}",
            headers={DEADLINE_HEADER: "soon-ish"},
        )
        assert response.status == 400
        assert body_of(response)["error"]["code"] == "invalid_request"

    def test_lowercase_header_accepted(self, service):
        response = service.dispatch(
            "POST", "/v1/sweep", SWEEP_BODY,
            headers={DEADLINE_HEADER.lower(): "0.001"},
        )
        assert response.status == 504

    def test_config_default_deadline_applies_without_header(self,
                                                            tmp_path):
        instance = BandwidthWallService(ServiceConfig(
            workers=2, job_workers=0, state_dir=str(tmp_path),
            default_deadline_ms=0.001,
        ))
        try:
            response = instance.dispatch("POST", "/v1/sweep", SWEEP_BODY)
            assert response.status == 504
        finally:
            instance.shutdown_jobs()

    def test_504_increments_deadline_metric(self, service):
        service.dispatch("POST", "/v1/sweep", SWEEP_BODY,
                         headers={DEADLINE_HEADER: "0.001"})
        rendered = service.dispatch(
            "GET", "/metrics", b"").body.decode("utf-8")
        assert ('request_deadline_exceeded_total'
                '{route="/v1/sweep"} 1') in rendered


class TestAdmission:
    @pytest.fixture()
    def saturated(self, tmp_path):
        instance = BandwidthWallService(ServiceConfig(
            workers=2, job_workers=0, state_dir=str(tmp_path),
            admission_capacity=1, admission_queue=0,
        ))
        slot = instance.admission.admit(EXPENSIVE)
        slot.__enter__()  # occupy the only expensive slot
        try:
            yield instance
        finally:
            slot.__exit__(None, None, None)
            instance.shutdown_jobs()

    def test_sweep_sheds_with_429_and_retry_after(self, saturated):
        response = saturated.dispatch("POST", "/v1/sweep", SWEEP_BODY)
        assert response.status == 429
        payload = body_of(response)["error"]
        assert payload["code"] == "saturated"
        assert payload["detail"]["reason"] == "queue_full"
        assert int(header(response, "Retry-After")) >= 1

    def test_cheap_requests_stay_fast_while_saturated(self, saturated):
        started = time.monotonic()
        health = saturated.dispatch("GET", "/healthz", b"")
        solve = saturated.dispatch("POST", "/v1/solve", b"{}")
        elapsed = time.monotonic() - started
        assert health.status == 200
        assert solve.status == 200
        assert elapsed < 0.1, f"cheap tier took {elapsed:.3f}s while full"

    def test_shed_metric_counts_reason(self, saturated):
        saturated.dispatch("POST", "/v1/sweep", SWEEP_BODY)
        rendered = saturated.dispatch(
            "GET", "/metrics", b"").body.decode("utf-8")
        assert 'resilience_shed_total{reason="queue_full"} 1' in rendered

    def test_job_submissions_shed_on_every_route(self, saturated):
        """A job posted to ``/v1/jobs`` takes an admission slot just as
        the same search posted to its ``/v1/optimize`` alias does."""
        search = {"ceas": 256.0, "strategy": "evolutionary",
                  "generations": 2, "population": 4}
        for path, body in (("/v1/optimize", search),
                           ("/v1/jobs", dict(search, kind="optimize"))):
            response = saturated.dispatch(
                "POST", path, json.dumps(body).encode("utf-8"))
            assert response.status == 429, path
            assert body_of(response)["error"]["detail"]["reason"] == \
                "queue_full"
        assert saturated.job_manager.list_jobs() == []

    def test_healthz_reports_admission_snapshot(self, saturated):
        payload = body_of(saturated.dispatch("GET", "/healthz", b""))
        admission = payload["resilience"]["admission"]
        assert admission["capacity"] == 1
        assert admission["active"] == 1


class TestBreaker:
    @pytest.fixture()
    def tripping(self, tmp_path):
        instance = BandwidthWallService(ServiceConfig(
            workers=2, job_workers=0, state_dir=str(tmp_path),
            fault_profile="breaker-trip", breaker_threshold=3,
            breaker_recovery=30.0,
        ))
        yield instance
        instance.shutdown_jobs()

    def trip(self, service):
        for _ in range(3):
            response = service.dispatch("GET", "/v1/jobs", b"")
            assert response.status == 503
            assert body_of(response)["error"]["code"] == \
                "store_unavailable"

    def test_store_faults_then_circuit_open_fast(self, tripping):
        self.trip(tripping)
        started = time.monotonic()
        response = tripping.dispatch("GET", "/v1/jobs", b"")
        elapsed = time.monotonic() - started
        assert response.status == 503
        assert body_of(response)["error"]["code"] == "circuit_open"
        assert int(header(response, "Retry-After")) >= 1
        assert elapsed < 0.05, \
            f"breaker-open rejection took {elapsed * 1000:.1f}ms"

    def test_metrics_render_open_state_and_transitions(self, tripping):
        self.trip(tripping)
        rendered = tripping.dispatch(
            "GET", "/metrics", b"").body.decode("utf-8")
        assert ('resilience_breaker_state'
                '{dependency="job-store"} 2') in rendered
        assert ('resilience_breaker_transitions_total'
                '{dependency="job-store",from="closed",to="open"} 1'
                ) in rendered
        # Store gauges degrade to NaN rather than killing the scrape.
        assert "jobs_queue_depth nan" in rendered

    def test_healthz_survives_store_outage_and_reports_breaker(
            self, tripping):
        self.trip(tripping)
        response = tripping.dispatch("GET", "/healthz", b"")
        assert response.status == 200
        payload = body_of(response)
        breakers = payload["resilience"]["breakers"]
        assert breakers[0]["name"] == "job-store"
        assert breakers[0]["state"] == "open"
        stats = payload["resilience"]["fault_injection"]
        assert stats["profile"] == "breaker-trip"
        assert "error" in payload["jobs"]


class TestRouteCost:
    def test_expensive_routes(self, service):
        assert service.route_cost("POST", "/v1/sweep") == EXPENSIVE

    def test_job_submit_routes_share_one_cost(self, service):
        costs = {path: service.route_cost("POST", path)
                 for path in ("/v1/jobs", "/v1/optimize", "/v1/traces")}
        assert set(costs.values()) == {EXPENSIVE}, costs

    def test_cheap_routes(self, service):
        for method, path in (("GET", "/healthz"), ("GET", "/metrics"),
                             ("POST", "/v1/solve"),
                             ("GET", "/v1/jobs")):
            assert service.route_cost(method, path) != EXPENSIVE

    def test_unknown_path_is_cheap(self, service):
        assert service.route_cost("GET", "/nope") != EXPENSIVE
