"""Trace jobs end-to-end: real server, real workers, real store.

Submission over HTTP (``POST /v1/jobs`` and its ``/v1/traces`` alias),
completion through the durable-jobs machinery, artifact retrieval via
both the generic jobs API and the alias, field-level validation,
admission-control access caps, and the trace series of the ``jobs_*``
metric families.
"""

import pytest

from repro.service.app import ServiceConfig, start_service
from repro.service.client import ServiceError
from repro.service.errors import ValidationError
from repro.service.validation import MAX_TRACE_ACCESSES, validate_job_request

#: Small enough for sub-second turnaround, big enough for a sane fit.
FAST = dict(source="powerlaw", units=[0.5], accesses=5000,
            working_set_lines=2048,
            line_counts=[2**k for k in range(3, 10)], fit_max_lines=512)


@pytest.fixture(scope="module")
def running(tmp_path_factory):
    handle = start_service(
        ServiceConfig(workers=4,
                      state_dir=str(tmp_path_factory.mktemp("trace-state")),
                      job_workers=2, job_lease_ttl=10.0),
        port=0,
    )
    yield handle
    handle.drain_and_stop()


@pytest.fixture(scope="module")
def client(running):
    return running.client()


def submit(client, **body):
    return client.submit_job({"kind": "trace", **body})


class TestLifecycle:
    def test_submit_complete_and_fetch_artifact(self, client):
        accepted = submit(client, **FAST)
        assert accepted["kind"] == "trace"
        assert accepted["status"] in ("queued", "running")

        done = client.wait_for_job(accepted["id"], timeout=60)
        assert done["status"] == "succeeded"
        result = done["result"]
        assert result["kind"] == "trace"
        assert result["source"] == "powerlaw"
        assert result["count"] == 1
        assert result["units"][0]["yavits_fit"]["alpha"] > 0

        via_traces = client.request_json(
            "GET", f"/v1/traces/{accepted['id']}")
        assert via_traces["result"] == result

    def test_jobs_route_and_alias_agree(self, client):
        body = dict(FAST, seed=5)
        generic = submit(client, **body)
        alias = client.request_json("POST", "/v1/traces", body)
        assert alias["kind"] == "trace"
        assert generic["spec"] == alias["spec"]
        done = [client.wait_for_job(job["id"], timeout=60)
                for job in (generic, alias)]
        assert done[0]["result"] == done[1]["result"]

    def test_resubmission_is_deterministic(self, client):
        first = submit(client, **FAST)
        second = submit(client, **FAST)
        assert first["id"] != second["id"]
        a = client.wait_for_job(first["id"], timeout=60)
        b = client.wait_for_job(second["id"], timeout=60)
        assert a["result"] == b["result"]

    def test_trace_endpoint_rejects_other_kinds(self, client):
        accepted = client.submit_job({"ids": ["fig13"]})
        client.wait_for_job(accepted["id"], timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", f"/v1/traces/{accepted['id']}")
        assert excinfo.value.status == 404

    def test_unknown_trace_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_json("GET", "/v1/traces/nope")
        assert excinfo.value.status == 404

    def test_generic_jobs_api_sees_trace_jobs(self, client):
        accepted = submit(client, **FAST)
        record = client.job(accepted["id"])
        assert record["kind"] == "trace"
        client.wait_for_job(accepted["id"], timeout=60)


#: One cross-checked unit at the access-pass cap's edge: 200k accesses
#: times (1 profiling pass + one pass per capacity).
CROSS_CHECKED = dict(source="powerlaw", units=[0.5], accesses=200_000,
                     associativity=8)
CAPACITIES = [2**k for k in range(3, 13)]


class TestAccessPassCap:
    """``cost()`` at the 2,000,000-pass cap: a 400 starts one pass over."""

    def body(self, capacities):
        return {"kind": "trace", **CROSS_CHECKED,
                "line_counts": CAPACITIES[:capacities]}

    def test_exactly_the_cap_is_accepted(self):
        request = validate_job_request(self.body(9))
        assert request.spec.params.cost() == MAX_TRACE_ACCESSES

    def test_one_pass_more_is_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            validate_job_request(self.body(10))
        assert [error.field for error in excinfo.value.errors] == \
            ["accesses"]
        assert "2200000 access passes" in excinfo.value.errors[0].message


class TestValidation:
    def field_names(self, excinfo):
        assert excinfo.value.status == 400
        return {error["field"]
                for error in excinfo.value.field_errors}

    def test_source_required_and_all_errors_collected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, source="oracle", accesses="many",
                   seed=1.5)  # type: ignore[arg-type]
        fields = self.field_names(excinfo)
        assert {"source", "accesses", "seed"} <= fields

    def test_file_source_rejected_over_http(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, source="file", units=["/etc/passwd"])
        assert "source" in self.field_names(excinfo)

    def test_bad_units_named(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, source="powerlaw", units=[0.0, "x"])
        fields = self.field_names(excinfo)
        assert {"units[0]", "units[1]"} <= fields

    def test_access_budget_cap_counts_sharing_cores(self, client):
        # 64 cores x 100k accesses/core = 6.4M > the 2M admission cap
        with pytest.raises(ServiceError) as excinfo:
            submit(client, source="sharing", units=[64])
        assert "accesses" in self.field_names(excinfo)

    def test_cross_check_passes_over_the_cap_are_rejected(self, client):
        # 200k accesses x (1 profiling pass + 10 capacities) = 2.2M
        with pytest.raises(ServiceError) as excinfo:
            submit(client, **CROSS_CHECKED, line_counts=CAPACITIES[:10])
        assert self.field_names(excinfo) == {"accesses"}

    def test_line_bytes_must_be_power_of_two(self, client):
        with pytest.raises(ServiceError) as excinfo:
            submit(client, source="powerlaw", line_bytes=48)
        assert "line_bytes" in self.field_names(excinfo)


class TestObservability:
    def test_trace_metric_families_render(self, client):
        accepted = submit(client, **FAST)
        client.wait_for_job(accepted["id"], timeout=60)
        text = client.metrics_text()
        assert 'jobs_submitted_total{kind="trace"}' in text
        assert 'jobs_budgeted_units_total{kind="trace"}' in text
        assert 'jobs{kind="trace",status="succeeded"}' in text
        assert "traces_jobs" not in text

    def test_healthz_stays_ok_with_trace_jobs(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
