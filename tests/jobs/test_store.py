"""Durable store semantics: leases, checkpoints, transitions.

Every test uses a frozen injectable clock, so lease expiry and backoff
gates are exact rather than sleep-based.
"""

import pytest

from repro.jobs.spec import JobSpec
from repro.jobs.store import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    JobStore,
)


class FakeClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


SPEC = JobSpec.experiments(["fig13", "ext-amdahl"])


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    return JobStore(tmp_path, clock=clock)


class TestSubmission:
    def test_submit_and_get(self, store):
        record = store.submit(SPEC, chunks_total=2)
        assert record.status == QUEUED
        assert record.kind == "experiments"
        assert record.attempts == 0
        assert record.failures == 0
        assert record.chunks_total == 2
        assert record.chunks_done == 0
        assert record.job_spec() == SPEC
        assert store.get(record.id) == record

    def test_submit_validates_inputs(self, store):
        with pytest.raises(ValueError, match="chunks_total"):
            store.submit(SPEC, chunks_total=0)
        with pytest.raises(ValueError, match="max_attempts"):
            store.submit(SPEC, chunks_total=1, max_attempts=0)

    def test_get_unknown_is_none(self, store):
        assert store.get("nope") is None

    def test_list_newest_first_with_filter(self, store):
        first = store.submit(SPEC, chunks_total=2)
        second = store.submit(SPEC, chunks_total=2)
        assert [job.id for job in store.list_jobs()] == \
            [second.id, first.id]
        store.finish(first.id, FAILED, error="boom")
        assert [job.id for job in store.list_jobs(status=FAILED)] == \
            [first.id]


class TestLeasing:
    def test_lease_oldest_first(self, store):
        first = store.submit(SPEC, chunks_total=2)
        store.submit(SPEC, chunks_total=2)
        leased = store.lease("w1")
        assert leased.id == first.id
        assert leased.status == RUNNING
        assert leased.lease_owner == "w1"
        assert leased.attempts == 1

    def test_lease_is_exclusive_across_store_instances(self, tmp_path,
                                                       clock):
        store_a = JobStore(tmp_path, clock=clock)
        store_b = JobStore(tmp_path, clock=clock)
        job = store_a.submit(SPEC, chunks_total=2)
        assert store_a.lease("w1").id == job.id
        assert store_b.lease("w2") is None

    def test_expired_lease_is_reclaimable(self, store, clock):
        job = store.submit(SPEC, chunks_total=2)
        store.lease("w1", lease_ttl=10.0)
        assert store.lease("w2", lease_ttl=10.0) is None
        clock.advance(11.0)
        reclaimed = store.lease("w2", lease_ttl=10.0)
        assert reclaimed.id == job.id
        assert reclaimed.lease_owner == "w2"
        assert reclaimed.attempts == 2

    def test_renew_is_owner_checked(self, store, clock):
        job = store.submit(SPEC, chunks_total=2)
        store.lease("w1", lease_ttl=10.0)
        assert store.renew_lease(job.id, "w1", lease_ttl=10.0)
        assert not store.renew_lease(job.id, "w2", lease_ttl=10.0)
        clock.advance(11.0)
        store.lease("w2", lease_ttl=10.0)
        # The original owner lost the lease for good.
        assert not store.renew_lease(job.id, "w1", lease_ttl=10.0)

    def test_release_is_owner_checked(self, store):
        job = store.submit(SPEC, chunks_total=2)
        store.lease("w1")
        assert not store.release(job.id, "w2")
        assert store.release(job.id, "w1")
        assert store.get(job.id).status == QUEUED

    def test_release_with_backoff_gates_release(self, store, clock):
        job = store.submit(SPEC, chunks_total=2)
        store.lease("w1")
        store.release(job.id, "w1", delay=5.0, count_failure=True,
                      error="chunk 0 failed")
        record = store.get(job.id)
        assert record.status == QUEUED
        assert record.failures == 1
        assert record.error == "chunk 0 failed"
        assert store.lease("w1") is None  # backoff gate armed
        clock.advance(5.0)
        assert store.lease("w1").id == job.id

    def test_drain_release_does_not_count_failure(self, store):
        job = store.submit(SPEC, chunks_total=2)
        store.lease("w1")
        store.release(job.id, "w1")
        record = store.get(job.id)
        assert record.failures == 0
        assert store.lease("w1") is not None  # immediately claimable


class TestCheckpoints:
    def test_first_write_wins(self, store):
        job = store.submit(SPEC, chunks_total=2)
        store.checkpoint(job.id, 0, '{"v": 1}')
        store.checkpoint(job.id, 0, '{"v": 2}')
        assert store.checkpoints(job.id) == {0: '{"v": 1}'}
        assert store.get(job.id).chunks_done == 1

    def test_progress_fraction(self, store):
        job = store.submit(SPEC, chunks_total=4)
        store.checkpoint(job.id, 0, "{}")
        assert store.get(job.id).progress == 0.25
        store.finish(job.id, SUCCEEDED, result_text="{}")
        assert store.get(job.id).progress == 1.0


class TestCompletion:
    def test_finish_stores_result_once(self, store):
        job = store.submit(SPEC, chunks_total=1)
        assert store.finish(job.id, SUCCEEDED, result_text="artifact")
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.result_text == "artifact"
        assert record.finished
        # Already terminal: further transitions are no-ops.
        assert not store.finish(job.id, FAILED, error="late")
        assert store.get(job.id).status == SUCCEEDED

    def test_finish_rejects_non_terminal_status(self, store):
        job = store.submit(SPEC, chunks_total=1)
        with pytest.raises(ValueError, match="terminal"):
            store.finish(job.id, RUNNING)

    def test_cancel_queued_is_immediate(self, store):
        job = store.submit(SPEC, chunks_total=1)
        record = store.request_cancel(job.id)
        assert record.status == CANCELLED
        assert record.cancel_requested

    def test_cancel_running_sets_flag_only(self, store):
        job = store.submit(SPEC, chunks_total=1)
        store.lease("w1")
        record = store.request_cancel(job.id)
        assert record.status == RUNNING
        assert record.cancel_requested
        # Flagged jobs are not claimable by other workers.
        assert store.lease("w2") is None

    def test_cancel_terminal_is_untouched(self, store):
        job = store.submit(SPEC, chunks_total=1)
        store.finish(job.id, SUCCEEDED, result_text="{}")
        record = store.request_cancel(job.id)
        assert record.status == SUCCEEDED
        assert not record.cancel_requested

    def test_cancel_unknown_is_none(self, store):
        assert store.request_cancel("nope") is None


class TestObservability:
    def test_counts_queue_depth_running(self, store, clock):
        done = store.submit(SPEC, chunks_total=1)
        store.finish(done.id, SUCCEEDED, result_text="{}")
        store.submit(SPEC, chunks_total=1)          # queued
        store.submit(SPEC, chunks_total=1)          # will run (live)
        store.submit(SPEC, chunks_total=1)          # will run (expired)
        store.lease("w1", lease_ttl=100.0)
        store.lease("w2", lease_ttl=5.0)
        clock.advance(6.0)  # w2's lease expires; w1's stays live
        counts = store.counts()
        assert counts["queued"] == 1
        assert counts["running"] == 2
        assert counts["succeeded"] == 1
        assert store.running_count() == 1
        assert store.queue_depth() == 2  # queued + expired-lease running

    def test_retries_total_sums_failures(self, store):
        job_a = store.submit(SPEC, chunks_total=1)
        job_b = store.submit(SPEC, chunks_total=1)
        store.lease("w1")
        store.release(job_a.id, "w1", count_failure=True)
        store.lease("w1")
        store.release(job_a.id, "w1", count_failure=True)
        store.finish(job_a.id, FAILED, error="gone")
        store.lease("w1")
        store.release(job_b.id, "w1", count_failure=True)
        assert store.retries_total() == 3
