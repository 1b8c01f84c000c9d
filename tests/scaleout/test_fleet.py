"""Worker-fleet end to end: ``--processes N`` claimers over one store.

The determinism contract under test: a backlog drained by N competing
forked claimers yields artifacts byte-identical to the single-process
serial path and to the checked-in goldens — parallelism must never
show in the output, only in the wall clock.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    serial_artifact,
)
from repro.jobs.spec import JobSpec
from repro.jobs.store import SUCCEEDED, JobStore

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

SWEEP = JobSpec.sweep(ceas=(16.0, 32.0, 64.0), budgets=(1.0, 2.0),
                      alpha=0.5, chunk_size=2)
EXPERIMENTS = JobSpec.experiments(["fig13", "ext-amdahl"])


def run_fleet_subprocess(state_dir, processes) -> str:
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "repro.jobs.worker",
         "--state-dir", str(state_dir), "--processes", str(processes),
         "--once", "--poll-interval", "0.05"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_fleet_drains_backlog_with_distinct_stamped_claimers(tmp_path):
    store = JobStore(tmp_path)
    job_ids = []
    for index in range(6):
        record = store.submit(SWEEP, chunks_total=chunk_count(SWEEP),
                              job_id=f"job-{index}")
        job_ids.append(record.id)

    output = run_fleet_subprocess(tmp_path, 3)

    serial = encode_artifact(serial_artifact(SWEEP))
    for job_id in job_ids:
        record = store.get(job_id)
        assert record.status == SUCCEEDED, (job_id, record.error)
        assert record.result_text == serial  # byte-identical artifacts

    # Three children, three distinct pid-stamped identities.  Matched
    # by regex, not by line: concurrent children interleave writes on
    # the shared stdout pipe, but each message body stays contiguous.
    stamped = set(re.findall(r"fleet worker (\S+) polling", output))
    assert len(stamped) == 3
    assert all("@" in identity for identity in stamped)


def test_fleet_artifact_entries_match_goldens(tmp_path):
    store = JobStore(tmp_path)
    record = store.submit(EXPERIMENTS,
                          chunks_total=chunk_count(EXPERIMENTS),
                          job_id="exp")
    run_fleet_subprocess(tmp_path, 2)
    record = store.get("exp")
    assert record.status == SUCCEEDED, record.error
    artifact = json.loads(record.result_text)
    for entry in artifact["experiments"]:
        golden = GOLDENS / f"{entry['experiment_id']}.json"
        assert json.dumps(entry, indent=1) + "\n" == golden.read_text()
