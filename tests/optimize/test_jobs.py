"""Optimize jobs through the durable-jobs layer: resume, cancel, drain.

In-process tests drive the real ``Worker`` against a ``JobStore``;
the subprocess test SIGTERMs a real ``python -m repro.jobs.worker``
mid-search: a seeded evolutionary job drained at a generation boundary
and finished by a fresh process yields a final Pareto frontier
byte-identical to an uninterrupted serial run.  The SIGKILL case runs
for every kind in ``tests/jobs/test_crash_resume.py``.
"""

import collections
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from repro.jobs.spec import JobSpec
from repro.jobs.store import CANCELLED, QUEUED, SUCCEEDED, JobStore
from repro.jobs.worker import CHUNK_LOG_ENV, CHUNK_SLEEP_ENV, Worker

#: Small enough to solve in milliseconds, large enough to have a
#: non-trivial frontier.
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


def evolutionary_spec(generations=5, population=8, seed=11):
    return JobSpec.optimize(ceas=256.0, budget=2.0,
                            strategy="evolutionary", seed=seed,
                            generations=generations,
                            population=population, space=TINY_SPACE)


#: Chunks 0 and 1 of ``evolutionary_spec()`` exactly as checkpointed
#: before chunks carried their population: counters and frontier only.
_PARENT_FRONTIER = (
    '[{"config_key": [1, 1, 1, 0, 0, 1, 0, 0], '
    '"config": {"cache_compression": 2.0, "link_compression": 2.0, '
    '"dram_density": 8.0, "stacked_layers": 0.0, '
    '"line_unused": 0.0, "filter_unused": 0.4, '
    '"core_area_fraction": 1.0, "sharing_fraction": 0.0}, '
    '"techniques": ["CC=2", "LC=2", "DRAM=8", "Fltr=0.4"], '
    '"cores": 144, "continuous_cores": 144.80525375203666, '
    '"cache_fraction": 0.4343544775311068, '
    '"traffic": 1.9761976477207794, "area_limited": false}, '
    '{"config_key": [0, 1, 1, 0, 0, 0, 0, 0], '
    '"config": {"cache_compression": 1.0, "link_compression": 2.0, '
    '"dram_density": 8.0, "stacked_layers": 0.0, '
    '"line_unused": 0.0, "filter_unused": 0.0, '
    '"core_area_fraction": 1.0, "sharing_fraction": 0.0}, '
    '"techniques": ["LC=2", "DRAM=8"], "cores": 106, '
    '"continuous_cores": 106.89566060561532, '
    '"cache_fraction": 0.5824388257593152, '
    '"traffic": 1.9690112260556907, "area_limited": false}, '
    '{"config_key": [1, 1, 0, 0, 0, 1, 0, 0], '
    '"config": {"cache_compression": 2.0, "link_compression": 2.0, '
    '"dram_density": 1.0, "stacked_layers": 0.0, '
    '"line_unused": 0.0, "filter_unused": 0.4, '
    '"core_area_fraction": 1.0, "sharing_fraction": 0.0}, '
    '"techniques": ["CC=2", "LC=2", "Fltr=0.4"], "cores": 83, '
    '"continuous_cores": 83.7712148089602, '
    '"cache_fraction": 0.6727686921524992, '
    '"traffic": 1.9680436731857538, "area_limited": false}]'
)
PARENT_CHECKPOINTS = {
    generation: (f'{{"generation": {generation}, "evaluated": '
                 f'{8 * (generation + 1)}, "skipped": 0, "frontier": '
                 + _PARENT_FRONTIER + "}")
    for generation in (0, 1)
}

#: sha256 of that job's artifact, run serially before the hand-over.
PARENT_ARTIFACT_SHA256 = \
    "6275b752ea4fa6b71ab0c78732561a71a639e78c21d69b644c3ad353d5062c8c"


def exhaustive_spec(chunk_size=5):
    return JobSpec.optimize(ceas=256.0, budget=2.0,
                            strategy="exhaustive", space=TINY_SPACE,
                            chunk_size=chunk_size)


def run_once(worker):
    worker.run_forever(threading.Event(), once=True)


def counting_evaluations(monkeypatch):
    """Count configurations the optimizer evaluates, per chunk index
    as the worker executes them; returns (counts, executor)."""
    from repro.optimize import search

    total = [0]
    evaluate = search._evaluate_configs

    def counting(model, params, configs):
        total[0] += len(configs)
        return evaluate(model, params, configs)

    monkeypatch.setattr(search, "_evaluate_configs", counting)
    counts = {}

    def executor(run_spec, index, previous):
        before = total[0]
        payload = execute_chunk(run_spec, index, previous)
        counts[index] = total[0] - before
        return payload

    return counts, executor


def wait_for(predicate, *, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def chunk_execution_counts(chunk_log):
    counts = collections.Counter()
    for line in Path(chunk_log).read_text().splitlines():
        _, _, index = line.rpartition(":")
        counts[int(index)] += 1
    return counts


def worker_env(chunk_log, *, chunk_sleep=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[CHUNK_LOG_ENV] = str(chunk_log)
    if chunk_sleep is not None:
        env[CHUNK_SLEEP_ENV] = str(chunk_sleep)
    else:
        env.pop(CHUNK_SLEEP_ENV, None)
    return env


def worker_command(state_dir, worker_id, *, once=False, lease_ttl=1.0):
    command = [
        sys.executable, "-m", "repro.jobs.worker",
        "--state-dir", str(state_dir),
        "--worker-id", worker_id,
        "--lease-ttl", str(lease_ttl),
        "--poll-interval", "0.05",
    ]
    if once:
        command.append("--once")
    return command


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [evolutionary_spec(),
                                      exhaustive_spec()])
    def test_dict_round_trip_is_lossless(self, spec):
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_auto_strategy_resolves_at_construction(self):
        spec = JobSpec.optimize(ceas=256.0, strategy="auto",
                                space=TINY_SPACE)
        assert spec.params.strategy == "exhaustive"  # 16 valid configs
        spec = JobSpec.optimize(ceas=256.0, strategy="auto")
        assert spec.params.strategy == "evolutionary"  # full 14336-config space

    def test_chunk_plan_matches_strategy(self):
        assert chunk_count(evolutionary_spec(generations=5)) == 5
        assert chunk_count(exhaustive_spec(chunk_size=5)) == 4  # 16/5


class TestInProcess:
    def test_evolutionary_job_matches_serial(self, tmp_path):
        spec = evolutionary_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        run_once(Worker(store, worker_id="w1"))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.result_text == encode_artifact(serial_artifact(spec))
        artifact = json.loads(record.result_text)
        assert artifact["strategy"] == "evolutionary"
        assert artifact["evaluated"] == 40  # 5 generations x 8

    def test_exhaustive_job_matches_serial(self, tmp_path):
        spec = exhaustive_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        run_once(Worker(store, worker_id="w1"))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.result_text == encode_artifact(serial_artifact(spec))

    def test_resume_skips_checkpointed_generations(self, tmp_path):
        """A pre-seeded checkpoint for generation 0 must be trusted:
        the worker executes only generations 1.. and still assembles
        the byte-identical artifact (snapshots are pure functions)."""
        spec = evolutionary_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        store.checkpoint(job.id, 0,
                         json.dumps(execute_chunk(spec, 0)))
        executed = []

        def recording(run_spec, index, previous):
            executed.append(index)
            return execute_chunk(run_spec, index, previous)

        run_once(Worker(store, worker_id="w1", execute_chunk=recording))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert executed == [1, 2, 3, 4]
        assert record.result_text == encode_artifact(serial_artifact(spec))

    def test_every_chunk_evaluates_one_population(self, tmp_path,
                                                  monkeypatch):
        """Each chunk continues from its predecessor's checkpoint, so
        every generation costs one population of evaluations, whatever
        its index — on a fresh run and after a resume alike."""
        spec = evolutionary_spec(generations=12)
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        counts, executor = counting_evaluations(monkeypatch)
        stop = threading.Event()

        def stop_after_fifth(run_spec, index, previous):
            if index == 4:
                stop.set()
            return executor(run_spec, index, previous)

        Worker(store, worker_id="w1",
               execute_chunk=stop_after_fifth).run_forever(stop, once=True)
        assert store.get(job.id).chunks_done == 5
        run_once(Worker(store, worker_id="w2", execute_chunk=executor))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert counts == {index: 8 for index in range(12)}
        assert record.result_text == encode_artifact(serial_artifact(spec))

    def test_parent_format_checkpoints_resume_byte_identically(
        self, tmp_path, monkeypatch
    ):
        """Checkpoints without the carried population: the next chunk
        steps from generation 0, the ones after it continue, and the
        artifact is the bytes the job had before the hand-over."""
        spec = evolutionary_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        for index, text in PARENT_CHECKPOINTS.items():
            store.checkpoint(job.id, index, text)
        counts, executor = counting_evaluations(monkeypatch)
        run_once(Worker(store, worker_id="w1", execute_chunk=executor))
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert counts == {2: 3 * 8, 3: 8, 4: 8}
        assert hashlib.sha256(record.result_text.encode()).hexdigest() \
            == PARENT_ARTIFACT_SHA256
        assert record.result_text == encode_artifact(serial_artifact(spec))

    def test_cancel_mid_search_stops_at_generation_boundary(
        self, tmp_path
    ):
        spec = evolutionary_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))

        def cancel_after_second(run_spec, index, previous):
            payload = execute_chunk(run_spec, index, previous)
            if index == 1:
                store.request_cancel(job.id)
            return payload

        run_once(Worker(store, worker_id="w1",
                        execute_chunk=cancel_after_second))
        record = store.get(job.id)
        assert record.status == CANCELLED
        assert record.chunks_done == 2  # generations 0 and 1 landed
        assert record.result_text is None
        # The surviving checkpoints are valid cumulative snapshots —
        # a later resubmission could reuse them verbatim.
        survived = store.checkpoints(job.id)
        assert set(survived) == {0, 1}
        snapshot = json.loads(survived[1])
        assert snapshot["generation"] == 1
        assert snapshot["evaluated"] == 16

    def test_cancelled_before_start_never_executes(self, tmp_path):
        spec = evolutionary_spec()
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        store.request_cancel(job.id)
        executed = []

        def recording(run_spec, index, previous):
            executed.append(index)
            return execute_chunk(run_spec, index, previous)

        run_once(Worker(store, worker_id="w1", execute_chunk=recording))
        assert store.get(job.id).status == CANCELLED
        assert executed == []


@pytest.mark.slow
class TestSubprocess:
    def test_sigterm_drains_and_successor_finishes(self, tmp_path):
        spec = evolutionary_spec(generations=6)
        store = JobStore(tmp_path)
        job = store.submit(spec, chunks_total=chunk_count(spec))
        chunk_log = tmp_path / "chunks.log"

        process = subprocess.Popen(
            worker_command(tmp_path, "drained"),
            env=worker_env(chunk_log, chunk_sleep=0.3),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert wait_for(lambda: store.get(job.id).chunks_done >= 1), \
                "worker never checkpointed a generation"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0  # voluntary clean exit
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        drained = store.get(job.id)
        assert drained.status == QUEUED  # clean release, no expiry wait
        assert drained.failures == 0
        # The in-flight generation finished and checkpointed.
        assert set(chunk_execution_counts(chunk_log)) == \
            set(store.checkpoints(job.id))

        resume = subprocess.run(
            worker_command(tmp_path, "successor", once=True),
            env=worker_env(chunk_log),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert resume.returncode == 0
        record = store.get(job.id)
        assert record.status == SUCCEEDED
        assert record.result_text == encode_artifact(serial_artifact(spec))
        # No generation ran twice across the two worker lives.
        counts = chunk_execution_counts(chunk_log)
        assert counts == {index: 1
                          for index in range(chunk_count(spec))}
