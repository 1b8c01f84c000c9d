"""Optimize jobs end-to-end: real server, real workers, real store.

Submission over HTTP (``POST /v1/jobs`` and its ``/v1/optimize``
alias), completion through the durable-jobs machinery, frontier
retrieval via both the generic jobs API and the alias, field-level
validation, admission-control cost caps, resubmission determinism, and
the optimize series of the ``jobs_*`` metric families.
"""

import pytest

from repro.service.app import ServiceConfig, start_service
from repro.service.client import ServiceError

#: 16 valid configs — exhaustive resolves and completes in well under a
#: second, keeping the module-scoped server cheap.
TINY_SPACE = {
    "cache_compression": [1.0, 2.0],
    "link_compression": [1.0, 2.0],
    "dram_density": [1.0, 8.0],
    "stacked_layers": [0],
    "line_unused": [0.0],
    "filter_unused": [0.0, 0.4],
    "core_area_fraction": [1.0],
    "sharing_fraction": [0.0],
}


@pytest.fixture(scope="module")
def running(tmp_path_factory):
    handle = start_service(
        ServiceConfig(workers=4,
                      state_dir=str(tmp_path_factory.mktemp("opt-state")),
                      job_workers=2, job_lease_ttl=10.0),
        port=0,
    )
    yield handle
    handle.drain_and_stop()


@pytest.fixture(scope="module")
def client(running):
    return running.client()


def submit(client, **body):
    return client.submit_job({"kind": "optimize", **body})


class TestLifecycle:
    def test_submit_complete_and_fetch_frontier(self, client):
        accepted = submit(client, ceas=256.0, budget=2.0,
                          space=TINY_SPACE)
        assert accepted["kind"] == "optimize"
        assert accepted["status"] in ("queued", "running")

        done = client.wait_for_job(accepted["id"], timeout=60)
        assert done["status"] == "succeeded"
        result = done["result"]
        assert result["kind"] == "optimize"
        assert result["strategy"] == "exhaustive"  # auto, small space
        assert result["valid_configs"] == 16
        assert result["evaluated"] == 16
        assert result["frontier_size"] == len(result["frontier"]) >= 1
        assert result["objectives"] == \
            ["cores", "cache_fraction", "traffic"]

        via_optimize = client.request_json(
            "GET", f"/v1/optimize/{accepted['id']}")
        assert via_optimize["result"] == result

    def test_jobs_route_and_alias_agree(self, client):
        body = {"ceas": 96.0, "budget": 2.0, "space": TINY_SPACE}
        generic = submit(client, **body)
        alias = client.request_json("POST", "/v1/optimize", body)
        assert alias["kind"] == "optimize"
        assert generic["spec"] == alias["spec"]
        done = [client.wait_for_job(job["id"], timeout=60)
                for job in (generic, alias)]
        assert done[0]["result"] == done[1]["result"]

    def test_evolutionary_resubmission_is_deterministic(self, client):
        request = dict(ceas=256.0, budget=2.0, strategy="evolutionary",
                       seed=13, generations=3, population=8,
                       space=TINY_SPACE)
        first = submit(client, **request)
        second = submit(client, **request)
        assert first["id"] != second["id"]
        a = client.wait_for_job(first["id"], timeout=60)
        b = client.wait_for_job(second["id"], timeout=60)
        assert a["result"]["frontier"] == b["result"]["frontier"]
        assert a["result"]["evaluated"] == 24

    def test_optimize_endpoint_rejects_other_kinds(self, client):
        accepted = client.submit_job({"ids": ["fig13"]})
        client.wait_for_job(accepted["id"], timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", f"/v1/optimize/{accepted['id']}")
        assert excinfo.value.status == 404

    def test_unknown_optimize_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", "/v1/optimize/nope")
        assert excinfo.value.status == 404

    def test_generic_jobs_api_sees_optimize_jobs(self, client):
        accepted = submit(client, ceas=64.0, space=TINY_SPACE)
        record = client.job(accepted["id"])
        assert record["kind"] == "optimize"
        client.wait_for_job(accepted["id"], timeout=60)


class TestValidation:
    def field_names(self, excinfo):
        assert excinfo.value.status == 400
        return {error["field"]
                for error in excinfo.value.field_errors}

    def test_ceas_required_and_all_errors_collected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, strategy="bogus", seed="soon")
        fields = self.field_names(excinfo)
        assert {"ceas", "strategy", "seed"} <= fields

    def test_bad_space_dimension_named_in_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, ceas=256.0,
                   space={"warp_drive": [2.0]})
        assert "space" in self.field_names(excinfo)

    def test_bad_space_values_named_per_dimension(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, ceas=256.0,
                   space={"cache_compression": []})
        assert "space.cache_compression" in self.field_names(excinfo)

    def test_exhaustive_over_budget_rejected(self, client):
        # Doubling one dimension pushes the valid count to 28672,
        # past MAX_OPTIMIZE_EVALUATIONS when forced exhaustive.
        wide = {"cache_compression":
                [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5]}
        with pytest.raises(ServiceError) as excinfo:
            submit(client, ceas=256.0, strategy="exhaustive",
                   space=wide)
        assert "space" in self.field_names(excinfo)

    def test_evolutionary_over_budget_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, ceas=256.0, strategy="evolutionary",
                   generations=200, population=256)
        assert "generations" in self.field_names(excinfo)


class TestObservability:
    def test_optimize_metric_families_render(self, client):
        accepted = submit(client, ceas=128.0, space=TINY_SPACE)
        client.wait_for_job(accepted["id"], timeout=60)
        text = client.metrics_text()
        assert 'jobs_submitted_total{kind="optimize"}' in text
        assert 'jobs_budgeted_units_total{kind="optimize"}' in text
        assert 'jobs{kind="optimize",status="succeeded"}' in text
        assert "optimize_jobs" not in text

    def test_healthz_stays_ok_with_optimize_jobs(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
