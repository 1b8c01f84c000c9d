"""Worker execution: completion, retries, cancellation, resume.

Logic tests inject fake chunk executors (fast, failure-controllable);
the end-to-end tests run real cheap experiments and pin the artifact
byte-identical to a chunkless serial run and to the checked-in golden
snapshots.
"""

import json
import random
import threading
from pathlib import Path

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from repro.jobs.spec import JobSpec
from repro.jobs.store import (
    CANCELLED,
    FAILED,
    QUEUED,
    SUCCEEDED,
    JobStore,
)
from repro.jobs.worker import Worker

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

#: Sub-millisecond experiments — end-to-end tests stay fast.
CHEAP_IDS = ["fig13", "ext-amdahl", "fig10"]


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path)


def run_once(worker):
    worker.run_forever(threading.Event(), once=True)


def fake_payload(index):
    return {"experiments": [{"experiment_id": f"e{index}", "schema": 1,
                             "result": {"chunk": index}}]}


class TestEndToEnd:
    def test_experiments_job_matches_serial_and_goldens(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        run_once(Worker(store, worker_id="w1"))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.progress == 1.0
        assert record.chunks_done == len(CHEAP_IDS)
        expected = encode_artifact(serial_artifact(spec))
        assert record.result_text == expected
        # Each entry is byte-identical to its golden snapshot.
        artifact = json.loads(record.result_text)
        for entry in artifact["experiments"]:
            golden = GOLDENS / f"{entry['experiment_id']}.json"
            assert json.dumps(entry, indent=1) + "\n" == \
                golden.read_text()

    def test_sweep_job_matches_serial(self, store):
        spec = JobSpec.sweep(ceas=[16.0, 32.0, 64.0],
                             budgets=[1.0, 2.0], chunk_size=2)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        run_once(Worker(store, worker_id="w1"))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.chunks_done == 3
        assert record.result_text == \
            encode_artifact(serial_artifact(spec))
        artifact = json.loads(record.result_text)
        assert artifact["count"] == 6
        assert artifact["points"][0]["ceas"] == 16.0


class TestRetries:
    def test_flaky_chunk_retries_then_succeeds(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec),
                           max_attempts=5)
        boom = {"remaining": 2}

        def flaky(run_spec, index, previous):
            if index == 1 and boom["remaining"] > 0:
                boom["remaining"] -= 1
                raise RuntimeError("transient chunk failure")
            return fake_payload(index)

        worker = Worker(store, worker_id="w1", execute_chunk=flaky,
                        backoff_base=0.0, rng=random.Random(0))
        run_once(worker)
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.failures == 2
        assert record.attempts == 3  # initial lease + two retries
        # No chunk executed twice: 0 and 2 were checkpointed before the
        # failures, 1 succeeded on its third try.
        artifact = json.loads(record.result_text)
        assert [e["result"]["chunk"]
                for e in artifact["experiments"]] == [0, 1, 2]

    def test_permanent_failure_exhausts_attempts(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec),
                           max_attempts=2)

        def always_broken(run_spec, index, previous):
            raise RuntimeError("deterministic bug")

        worker = Worker(store, worker_id="w1",
                        execute_chunk=always_broken, backoff_base=0.0,
                        rng=random.Random(0))
        run_once(worker)
        record = store.get(job.id)
        assert record.status == FAILED
        assert record.attempts == 2
        assert "chunk 0 failed (failure 2/2)" in record.error
        assert "deterministic bug" in record.error

    def test_backoff_delay_grows_and_is_capped(self, store):
        worker = Worker(store, backoff_base=0.5, backoff_cap=4.0,
                        backoff_jitter=0.0)
        delays = [worker._backoff_delay(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0]

    def test_jitter_stretches_delay_multiplicatively(self, store):
        worker = Worker(store, backoff_base=1.0, backoff_cap=30.0,
                        backoff_jitter=0.5, rng=random.Random(7))
        delay = worker._backoff_delay(1)
        assert 1.0 <= delay <= 1.5


class TestCancellation:
    def test_cancel_honoured_at_chunk_boundary(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec))

        def cancel_after_first(run_spec, index, previous):
            if index == 0:
                store.request_cancel(job.id)
            return fake_payload(index)

        worker = Worker(store, worker_id="w1",
                        execute_chunk=cancel_after_first)
        run_once(worker)
        record = store.get(job.id)
        assert record.status == CANCELLED
        assert record.chunks_done == 1  # chunk 0 finished, 1 never ran


class TestResume:
    def test_resume_skips_checkpointed_chunks(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        store.checkpoint(job.id, 0, json.dumps(fake_payload(0)))
        executed = []

        def recording(run_spec, index, previous):
            executed.append(index)
            return fake_payload(index)

        worker = Worker(store, worker_id="w1", execute_chunk=recording)
        run_once(worker)
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert executed == [1, 2]  # chunk 0 came from the checkpoint
        artifact = json.loads(record.result_text)
        assert [e["result"]["chunk"]
                for e in artifact["experiments"]] == [0, 1, 2]

    def test_drain_releases_with_checkpoints_intact(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        stop = threading.Event()

        def stop_after_first(run_spec, index, previous):
            stop.set()  # observed before chunk 1 starts
            return fake_payload(index)

        worker = Worker(store, worker_id="w1",
                        execute_chunk=stop_after_first)
        worker.run_forever(stop, once=True)
        record = store.get(job.id)
        assert record.status == QUEUED
        assert record.chunks_done == 1
        assert record.failures == 0  # drain never burns retry budget
        assert record.lease_owner is None


class TestBadSpec:
    def test_unusable_stored_spec_fails_cleanly(self, store):
        spec = JobSpec.experiments(CHEAP_IDS)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        with store._connection() as conn:
            conn.execute("UPDATE jobs SET spec = ? WHERE id = ?",
                         ('{"kind": "bogus"}', job.id))
        run_once(Worker(store, worker_id="w1"))
        record = store.get(job.id)
        assert record.status == FAILED
        assert "unusable job spec" in record.error


class TestSweepStoredWithChunkSizeZero:
    """A sweep row stored before the store kept resolved chunk sizes:
    ``chunk_size`` 0, ``chunks_total`` 15 and checkpoints written at
    64 points.  It must resume at 64 points, not the current default."""

    CEAS = [16.0 + 4.0 * i for i in range(30)]
    BUDGETS = [round(0.5 + 0.1 * j, 3) for j in range(30)]

    def stored_row(self, store):
        spec_text = json.dumps({
            "kind": "sweep", "chunk_size": 0, "ceas": self.CEAS,
            "budgets": self.BUDGETS, "alpha": 0.45,
            "techniques": ["DRAM=8"],
        })
        with store._connection() as conn:
            conn.execute(
                "INSERT INTO jobs (id, kind, spec, status, max_attempts,"
                " chunks_total, created_at, seq)"
                " VALUES ('legacy', 'sweep', ?, 'queued', 3, 15, 1.0, 1)",
                (spec_text,))
        at_64 = JobSpec.sweep(ceas=self.CEAS, budgets=self.BUDGETS,
                              alpha=0.45, techniques=["DRAM=8"],
                              chunk_size=64)
        for index in range(5):
            store.checkpoint("legacy", index,
                             json.dumps(execute_chunk(at_64, index)))

    def test_resumes_at_64_points_byte_identically(self, store):
        self.stored_row(store)
        executed = []

        def recording(run_spec, index, previous):
            executed.append((index, run_spec.effective_chunk_size))
            return execute_chunk(run_spec, index, previous)

        run_once(Worker(store, worker_id="w1", execute_chunk=recording))
        record = store.get("legacy")
        assert record.status == SUCCEEDED
        assert record.chunks_done == 15
        assert executed == [(index, 64) for index in range(5, 15)]
        spec = JobSpec.sweep(ceas=self.CEAS, budgets=self.BUDGETS,
                             alpha=0.45, techniques=["DRAM=8"])
        assert record.result_text == \
            encode_artifact(serial_artifact(spec))
