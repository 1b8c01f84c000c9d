"""Crash-resume: SIGKILL a worker process mid-chunk, restart, resume.

The acceptance bar for the whole subsystem, for every job kind: a job
whose worker died without any chance to clean up must, after a
restart, produce an artifact byte-identical to an uninterrupted serial
run — and must not re-execute any chunk that was already checkpointed.

The worker process is the real ``python -m repro.jobs.worker`` entry
point; the test talks to it only through the shared state dir.  The
``REPRO_JOBS_TEST_CHUNK_SLEEP`` hook holds each chunk open long enough
to guarantee the SIGKILL lands mid-chunk, and
``REPRO_JOBS_TEST_CHUNK_LOG`` records every chunk execution start so
re-execution can be counted exactly.
"""

import collections
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    serial_artifact,
)
from repro.jobs.spec import KINDS, JobSpec
from repro.jobs.store import SUCCEEDED, JobStore
from repro.jobs.worker import CHUNK_LOG_ENV, CHUNK_SLEEP_ENV

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
CHEAP_IDS = ["fig13", "ext-amdahl", "fig10", "fig7"]
LEASE_TTL = 1.0

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

#: One multi-chunk job per kind, each about a second of real work.
SPECS = {
    "experiments": lambda: JobSpec.experiments(CHEAP_IDS),
    "sweep": lambda: JobSpec.sweep(
        ceas=[16, 24, 32, 48, 64, 96], budgets=[1.0, 2.0], alpha=0.45,
        techniques=["DRAM=8"], chunk_size=3),
    "optimize": lambda: JobSpec.optimize(
        ceas=256.0, budget=2.0, strategy="evolutionary", seed=11,
        generations=8, population=8, space=TINY_SPACE),
    "trace": lambda: JobSpec.trace_job(
        source="powerlaw", units=(0.36, 0.48, 0.62), accesses=5000,
        working_set_lines=2048,
        line_counts=tuple(2**k for k in range(3, 10)), fit_max_lines=512),
}


def worker_command(state_dir, worker_id, *, once=False):
    command = [
        sys.executable, "-m", "repro.jobs.worker",
        "--state-dir", str(state_dir),
        "--worker-id", worker_id,
        "--lease-ttl", str(LEASE_TTL),
        "--poll-interval", "0.05",
    ]
    if once:
        command.append("--once")
    return command


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


def wait_for(predicate, *, timeout=15.0, interval=0.05):
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


def test_every_kind_is_covered():
    assert list(SPECS) == list(KINDS)


@pytest.mark.slow
@pytest.mark.parametrize("kind", list(SPECS))
def test_sigkill_mid_chunk_then_restart_is_byte_identical(tmp_path, kind):
    spec = SPECS[kind]()
    assert spec.kind == kind and chunk_count(spec) >= 3
    store = JobStore(tmp_path)
    job = store.submit(spec, chunks_total=chunk_count(spec))
    chunk_log = tmp_path / "chunks.log"

    # Phase 1: a worker that sleeps 300ms inside every chunk, killed
    # with SIGKILL once at least one checkpoint has landed -- i.e. while
    # it is provably inside a later chunk's sleep window.
    process = subprocess.Popen(
        worker_command(tmp_path, "victim"),
        env=worker_env(chunk_log, chunk_sleep=0.3),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        assert wait_for(lambda: store.get(job.id).chunks_done >= 1), \
            "worker never checkpointed a chunk"
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

    survived = set(store.checkpoints(job.id))
    assert survived, "kill landed before any checkpoint"
    interrupted = store.get(job.id)
    assert interrupted.status == "running"  # lease died with the worker
    assert interrupted.chunks_done < interrupted.chunks_total

    # Phase 2: wait out the orphaned lease, then let a fresh worker
    # process (no sleep hook) claim and finish the job.
    assert wait_for(lambda: store.queue_depth() > 0,
                    timeout=LEASE_TTL + 5.0), "lease never expired"
    resume = subprocess.run(
        worker_command(tmp_path, "successor", once=True),
        env=worker_env(chunk_log),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120,
    )
    assert resume.returncode == 0

    record = store.get(job.id)
    assert record.status == SUCCEEDED
    assert record.attempts == 2  # victim's lease + successor's

    # Byte-identity: the resumed artifact equals a chunkless serial run
    # (and, for experiments, every entry equals its golden snapshot).
    assert record.result_text == encode_artifact(serial_artifact(spec))
    if kind == "experiments":
        artifact = json.loads(record.result_text)
        assert [e["experiment_id"] for e in artifact["experiments"]] == \
            CHEAP_IDS
        for entry in artifact["experiments"]:
            golden = GOLDENS / f"{entry['experiment_id']}.json"
            assert json.dumps(entry, indent=1) + "\n" == golden.read_text()

    # Checkpointed chunks were executed exactly once; only the chunk
    # that was in flight when SIGKILL landed may have run twice.
    counts = chunk_execution_counts(chunk_log)
    assert set(counts) == set(range(chunk_count(spec)))
    for index in survived:
        assert counts[index] == 1, \
            f"checkpointed chunk {index} re-executed"
    assert sum(counts.values()) <= chunk_count(spec) + 1
