"""The jobs API end-to-end: real server, real workers, real store.

Covers the full lifecycle over HTTP (submit → poll → result, cancel,
conflict, validation), the observability surfaces (``/healthz`` jobs
block, ``jobs_*`` metric families), durable-store reuse across service
restarts, and — the subsystem's acceptance bar — a whole-registry job
whose stored artifact entries are byte-identical to the golden
snapshots.
"""

import json
from pathlib import Path

import pytest

from repro.jobs.spec import JobSpec
from repro.jobs.store import SUCCEEDED, JobStore
from repro.service.app import (
    BandwidthWallService,
    ServiceConfig,
    start_service,
)
from repro.service.client import ServiceError

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
CHEAP_IDS = ["fig13", "ext-amdahl", "fig10"]


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("jobs-state"))


@pytest.fixture(scope="module")
def running(state_dir):
    handle = start_service(
        ServiceConfig(workers=4, state_dir=state_dir, job_workers=2,
                      job_lease_ttl=10.0),
        port=0,
    )
    yield handle
    handle.drain_and_stop()


@pytest.fixture(scope="module")
def client(running):
    return running.client()


class TestLifecycle:
    def test_submit_poll_result(self, client):
        accepted = client.submit_job({"ids": CHEAP_IDS})
        assert accepted["status"] in ("queued", "running")
        assert accepted["kind"] == "experiments"
        assert accepted["progress"]["chunks_total"] == len(CHEAP_IDS)
        assert accepted["retries"] == 0
        assert "result" not in accepted

        done = client.wait_for_job(accepted["id"], timeout=30)
        assert done["status"] == "succeeded"
        assert done["progress"]["fraction"] == 1.0
        result = done["result"]
        assert result["kind"] == "experiments"
        assert result["count"] == len(CHEAP_IDS)
        assert [entry["experiment_id"]
                for entry in result["experiments"]] == CHEAP_IDS

    def test_sweep_job_matches_sweep_endpoint(self, client):
        request = dict(ceas=[16.0, 32.0, 64.0], budgets=[1.0, 2.0],
                       alpha=0.45, techniques=["DRAM=8"])
        accepted = client.submit_job(
            {"kind": "sweep", "chunk_size": 2, **request})
        done = client.wait_for_job(accepted["id"], timeout=30)
        assert done["status"] == "succeeded"
        sweep = client.sweep(**request)
        assert done["result"]["points"] == sweep["points"]
        assert done["result"]["techniques"] == sweep["techniques"]
        assert done["result"]["request"] == sweep["request"]

    def test_list_and_status_filter(self, client):
        accepted = client.submit_job({"ids": ["fig13"]})
        client.wait_for_job(accepted["id"], timeout=30)
        listing = client.jobs()
        assert listing["count"] >= 1
        assert accepted["id"] in {job["id"] for job in listing["jobs"]}
        assert all("result" not in job for job in listing["jobs"])
        succeeded = client.jobs(status="succeeded")
        assert all(job["status"] == "succeeded"
                   for job in succeeded["jobs"])

    def test_cancel_finished_job_conflicts(self, client):
        accepted = client.submit_job({"ids": ["fig13"]})
        client.wait_for_job(accepted["id"], timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel_job(accepted["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "conflict"

    def test_unknown_job_is_404(self, client):
        for attempt in (lambda: client.job("nope"),
                        lambda: client.cancel_job("nope")):
            with pytest.raises(ServiceError) as excinfo:
                attempt()
            assert excinfo.value.status == 404


class TestValidation:
    def field_names(self, excinfo):
        assert excinfo.value.status == 400
        return {error["field"]
                for error in excinfo.value.field_errors}

    def test_unknown_kind(self, client):
        # Non-string kinds, unhashable ones included, are a 400 too.
        for kind in ("nonsense", [], {}, 1):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job({"kind": kind})
            assert "kind" in self.field_names(excinfo)

    def test_alias_refuses_another_kind(self, client):
        for path in ("/v1/optimize", "/v1/traces"):
            with pytest.raises(ServiceError) as excinfo:
                client.request_json("POST", path,
                                    {"kind": "sweep", "ceas": 32})
            assert self.field_names(excinfo) == {"kind"}

    def test_unknown_ids_list_valid_ones(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({"ids": ["not-a-thing"]})
        errors = excinfo.value.field_errors
        assert errors[0]["field"] == "ids[0]"
        assert "fig2" in errors[0]["message"]

    def test_sweep_fields_rejected_on_experiments_job(self, client):
        for body, field in [
            ({"kind": "experiments", "ceas": 32}, "ceas"),
            ({"kind": "experiments", "ids": ["fig2"],
              "techniques": "nonsense-label"}, "techniques"),
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(body)
            assert field in self.field_names(excinfo)

    def test_sweep_requires_ceas(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({"kind": "sweep"})
        assert "ceas" in self.field_names(excinfo)

    def test_chunk_size_and_max_attempts_bounds(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({"ids": ["fig13"], "chunk_size": 0,
                               "max_attempts": 99})
        assert {"chunk_size", "max_attempts"} <= \
            self.field_names(excinfo)

    def test_oversized_grid_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({"kind": "sweep",
                               "ceas": list(range(1, 202)),
                               "budgets": list(range(1, 52))})
        assert "ceas" in self.field_names(excinfo)

    def test_bad_status_filter(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.jobs(status="finished")
        assert excinfo.value.status == 400


class TestObservability:
    def test_healthz_reports_jobs_and_worker_liveness(self, client):
        payload = client.healthz()
        jobs = payload["jobs"]
        assert jobs["workers"] == 2
        assert jobs["workers_alive"] == 2
        assert {"queue_depth", "running", "queued", "succeeded",
                "failed", "cancelled", "retries_total"} <= set(jobs)

    def test_jobs_metric_families(self, client):
        accepted = client.submit_job({"ids": ["fig13"]})
        client.wait_for_job(accepted["id"], timeout=30)
        text = client.metrics_text()
        assert 'jobs_submitted_total{kind="experiments"}' in text
        assert 'jobs_budgeted_units_total{kind="experiments"}' in text
        for kind in ("experiments", "sweep", "optimize", "trace"):
            assert f'jobs{{kind="{kind}",status="succeeded"}}' in text
        for family in ("jobs_queue_depth", "jobs_running",
                       "jobs_retries_total", "jobs_succeeded_total",
                       "jobs_failed_total", "jobs_cancelled_total",
                       "jobs_workers_alive",
                       "jobs_chunk_duration_seconds"):
            assert family in text, f"missing metric family {family}"
        assert "service_response_cache_expirations_total" in text


class TestQueuedAndCancel:
    """A worker-less service: jobs stay queued for external workers."""

    @pytest.fixture()
    def parked(self, tmp_path):
        handle = start_service(
            ServiceConfig(workers=2, state_dir=str(tmp_path),
                          job_workers=0),
            port=0,
        )
        yield handle
        handle.drain_and_stop()

    def test_queued_cancel_and_cancel_idempotence(self, parked):
        client = parked.client()
        accepted = client.submit_job({"ids": ["fig13"]})
        assert accepted["status"] == "queued"
        assert client.healthz()["jobs"]["queue_depth"] == 1
        cancelled = client.cancel_job(accepted["id"])
        assert cancelled["status"] == "cancelled"
        # Cancelling again is harmless (only succeeded/failed conflict).
        assert client.cancel_job(accepted["id"])["status"] == "cancelled"
        assert client.healthz()["jobs"]["queue_depth"] == 0
        assert client.jobs(status="cancelled")["count"] == 1

    def test_queued_jobs_survive_service_restart(self, parked,
                                                 tmp_path):
        client = parked.client()
        accepted = client.submit_job({"ids": CHEAP_IDS})
        assert parked.drain_and_stop()
        # Same state dir, now with workers: the job executes on boot.
        successor = start_service(
            ServiceConfig(workers=2, state_dir=str(tmp_path),
                          job_workers=1),
            port=0,
        )
        try:
            done = successor.client().wait_for_job(accepted["id"],
                                                   timeout=30)
            assert done["status"] == "succeeded"
            assert done["result"]["count"] == len(CHEAP_IDS)
        finally:
            successor.drain_and_stop()


class TestStrictResult:
    def test_non_finite_artifact_values_render_strict(self, tmp_path):
        """A finished job's GET body, byte for byte: the stored artifact
        keeps bare NaN/Infinity tokens, the response spells them as
        strict-JSON sentinels."""
        service = BandwidthWallService(
            ServiceConfig(state_dir=str(tmp_path), job_workers=0)
        )
        try:
            store = service.job_manager.store
            store.submit(JobSpec.experiments(["fig13"]), chunks_total=1,
                         job_id="pinned")
            store.finish("pinned", SUCCEEDED, result_text=json.dumps(
                {"gain": [1.5, float("nan")], "wall": float("inf"),
                 "floor": float("-inf")}, indent=1) + "\n")
            with store._connection() as conn:
                conn.execute("UPDATE jobs SET created_at = 1.0,"
                             " finished_at = 2.5 WHERE id = 'pinned'")
            response = service.dispatch("GET", "/v1/jobs/pinned", b"")
        finally:
            service.shutdown_jobs()
        assert response.status == 200
        assert response.body.decode("utf-8") == PINNED_BODY


PINNED_BODY = """{
  "id": "pinned",
  "kind": "experiments",
  "status": "succeeded",
  "cancel_requested": false,
  "spec": {
    "kind": "experiments",
    "chunk_size": 0,
    "ids": [
      "fig13"
    ]
  },
  "progress": {
    "chunks_done": 0,
    "chunks_total": 1,
    "fraction": 1.0
  },
  "attempts": 0,
  "retries": 0,
  "max_attempts": 3,
  "created_at": 1.0,
  "started_at": null,
  "finished_at": 2.5,
  "error": null,
  "result": {
    "gain": [
      1.5,
      null
    ],
    "wall": "Infinity",
    "floor": "-Infinity"
  }
}
"""


class TestDraining:
    def test_submissions_rejected_while_draining(self, tmp_path):
        service = BandwidthWallService(
            ServiceConfig(state_dir=str(tmp_path), job_workers=0)
        )
        try:
            service.draining.set()
            response = service.dispatch(
                "POST", "/v1/jobs", json.dumps({"ids": ["fig13"]})
                .encode("utf-8"),
            )
            assert response.status == 503
            payload = json.loads(response.body)
            assert payload["error"]["code"] == "draining"
        finally:
            service.shutdown_jobs()


@pytest.mark.slow
def test_full_registry_job_is_byte_identical_to_goldens(running,
                                                        client,
                                                        state_dir):
    """Acceptance: POST /v1/jobs over all 30 experiments reproduces the
    golden artifacts byte-for-byte from the stored chunk checkpoints."""
    accepted = client.submit_job({})
    assert accepted["progress"]["chunks_total"] == 30
    done = client.wait_for_job(accepted["id"], timeout=300,
                               poll_interval=0.5)
    assert done["status"] == "succeeded"
    assert done["result"]["count"] == 30

    record = JobStore(state_dir).get(accepted["id"])
    artifact = json.loads(record.result_text)
    assert len(artifact["experiments"]) == 30
    for entry in artifact["experiments"]:
        golden = GOLDENS / f"{entry['experiment_id']}.json"
        assert json.dumps(entry, indent=1) + "\n" == \
            golden.read_text(), \
            f"{entry['experiment_id']} diverged from its golden"
