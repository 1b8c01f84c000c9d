"""End-to-end tests: real HTTP server, real sockets, real handlers."""

import json

import pytest

from repro.cli import main as cli_main
from repro.service.app import ServiceConfig, start_service
from repro.service.client import ServiceError


def strict_loads(text):
    """json.loads that rejects bare NaN/Infinity tokens."""
    def reject(token):
        raise AssertionError(f"non-strict JSON token: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def running():
    handle = start_service(ServiceConfig(workers=4, cache_ttl=300.0),
                           port=0)
    yield handle
    handle.drain_and_stop()


@pytest.fixture(scope="module")
def client(running):
    return running.client()


class TestHealth:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["experiments"] == 30
        assert payload["uptime_seconds"] >= 0


class TestSolve:
    def test_base_case_matches_paper(self, client):
        payload = client.solve()
        assert payload["solution"]["cores"] == 11
        assert payload["verdict"] == "sub-proportional"
        assert payload["proportional_cores"] == 16.0

    def test_text_is_byte_identical_to_cli(self, client, capsys):
        argv = ["solve", "--ceas", "256", "--alpha", "0.45",
                "--budget", "1.5", "--technique", "DRAM=8",
                "--technique", "CC/LC=2"]
        assert cli_main(argv) == 0
        cli_text = capsys.readouterr().out
        payload = client.solve(ceas=256, alpha=0.45, budget=1.5,
                               techniques=["DRAM=8", "CC/LC=2"])
        assert payload["text"] == cli_text

    def test_headline_combination(self, client):
        payload = client.solve(ceas=256, techniques=[
            "CC/LC=2", "DRAM=8", "3D", "SmCl=0.4"])
        assert payload["solution"]["cores"] == 183
        assert payload["verdict"] == "super-proportional"

    def test_validation_error_payload(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.solve(alpha=-1, budget=0)
        error = excinfo.value
        assert error.status == 400
        assert error.code == "invalid_request"
        assert {fe["field"] for fe in error.field_errors} == \
            {"alpha", "budget"}

    def test_malformed_json_body(self, client):
        status, raw = client.request("POST", "/v1/solve")
        # empty body means defaults; now send garbage bytes
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10)
        try:
            connection.request("POST", "/v1/solve", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = strict_loads(response.read().decode())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_overflowing_alpha_is_unsolvable(self, client):
        """An alpha so steep that the traffic model leaves float range is
        a well-formed request without a solution (422), not a crash."""
        with pytest.raises(ServiceError) as excinfo:
            client.solve(alpha=26)
        assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.sweep(ceas=[32, 64], budgets=[1.0], alpha=26)
        assert excinfo.value.status == 422

    def test_empty_body_uses_defaults(self, client):
        status, raw = client.request("POST", "/v1/solve")
        assert status == 200
        assert strict_loads(raw.decode())["solution"]["cores"] == 11


class TestSweep:
    def test_grid_points_match_solve(self, client):
        sweep = client.sweep(ceas=[32, 64], budgets=[1.0, 1.5])
        assert sweep["count"] == 4
        by_key = {(p["ceas"], p["budget"]): p for p in sweep["points"]}
        assert by_key[(32.0, 1.0)]["cores"] == 11
        assert by_key[(32.0, 1.5)]["cores"] == 13
        single = client.solve(ceas=64, budget=1.5)
        assert by_key[(64.0, 1.5)]["cores"] == \
            single["solution"]["cores"]

    def test_sweep_with_techniques(self, client):
        sweep = client.sweep(ceas=32, techniques=["DRAM=8"])
        assert sweep["techniques"] == ["DRAM"]
        assert sweep["points"][0]["cores"] == 18

    def test_missing_ceas_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("POST", "/v1/sweep", {})
        assert excinfo.value.status == 400


class TestExperiments:
    def test_listing(self, client):
        payload = client.experiments()
        assert payload["count"] == 30
        ids = [entry["id"] for entry in payload["experiments"]]
        assert ids[0] == "fig1"
        assert "table2" in ids
        assert all(entry["title"] for entry in payload["experiments"])

    def test_artifact_payload_matches_golden_encoding(self, client):
        payload = client.experiment("fig02")
        assert payload["experiment_id"] == "fig2"
        result = payload["result"]
        assert result["supportable_cores_flat"] == 11
        assert result["supportable_cores_optimistic"] == 13
        assert result["__dataclass__"] == "Figure2Result"

    def test_report_flag_returns_cli_text(self, client):
        from repro.experiments.runner import experiment_report

        payload = client.experiment("fig2", report=True)
        assert payload["report"] == experiment_report("fig2")

    def test_id_normalisation(self, client):
        for spelling in ("fig2", "fig02", "Figure 2", "figure-2"):
            payload = client.experiment(spelling)
            assert payload["experiment_id"] == "fig2"

    def test_unknown_id_is_404_listing_valid_ids(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.experiment("fig99")
        error = excinfo.value
        assert error.status == 404
        assert error.code == "not_found"
        assert "fig2" in error.detail["valid_ids"]
        assert len(error.detail["valid_ids"]) == 30


class TestRouting:
    def test_unknown_route_lists_routes(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", "/v2/nope")
        error = excinfo.value
        assert error.status == 404
        assert any("/v1/solve" in route
                   for route in error.detail["routes"])

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", "/v1/solve")
        error = excinfo.value
        assert error.status == 405
        assert error.detail["allowed"] == ["POST"]


class TestMetricsEndpoint:
    def test_scrape_exposes_all_families(self, client):
        client.solve()  # ensure at least one instrumented request
        text = client.metrics_text()
        for family in (
            "service_requests_total",
            "service_request_duration_seconds_bucket",
            "service_request_duration_seconds_count",
            "service_inflight_requests",
            "service_response_cache_hits_total",
            "service_response_cache_hit_rate",
        ):
            assert family in text, family

    def test_request_counters_by_route_and_status(self, client):
        client.solve()
        with pytest.raises(ServiceError):
            client.solve(alpha=-1)
        text = client.metrics_text()
        assert ('service_requests_total{route="/v1/solve",method="POST",'
                'status="200"}') in text
        assert ('service_requests_total{route="/v1/solve",method="POST",'
                'status="400"}') in text


class TestLifecycle:
    def test_graceful_shutdown_drains(self):
        handle = start_service(ServiceConfig(workers=2), port=0)
        client = handle.client()
        assert client.healthz()["status"] == "ok"
        assert handle.drain_and_stop() is True
        with pytest.raises((ConnectionError, OSError, ServiceError,
                            TimeoutError)):
            client.healthz()

    def test_responses_are_strict_json(self, client):
        for method, path, body in (
            ("GET", "/healthz", None),
            ("POST", "/v1/solve", {"ceas": 32}),
            ("GET", "/v1/experiments", None),
            ("GET", "/v1/experiments/fig3", None),
            ("GET", "/nope", None),
        ):
            status, raw = client.request(method, path, body)
            strict_loads(raw.decode("utf-8"))  # must not raise
