"""Golden cross-check for the vectorized solver core.

``REPRO_VECTORIZED=force`` routes **every** ``supportable_cores`` call
— even single solves — through the batch kernel, so running the whole
experiment registry in that mode exercises the vectorized path under
every model, technique stack and grid the paper artifacts use.  The
output must byte-match a scalar run (same JSON text, not just close
floats) and still satisfy the checked-in goldens.

The jobs half pins the same property for the durable-job executor: a
checkpointed sweep job computed through the vectorized grid path must
produce artifact chunks byte-identical to a scalar run, so crash-resume
determinism survives the batch kernel.
"""

import json

import pytest

from repro.core import vectorized
from repro.experiments import experiment_ids
from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from repro.jobs.spec import JobSpec

from .goldens import regen
from .test_goldens import assert_jsonable_equal

ALL_IDS = experiment_ids()


@pytest.fixture(scope="module")
def forced_sweep():
    """Full-registry serial results with every solve forced through the
    batch kernel (no cache sits in front of the solve, so no earlier
    scalar-solved answer can stand in for the kernel's)."""
    from repro.experiments.engine import SweepEngine

    previous = vectorized.mode()
    vectorized.configure("force")
    try:
        sweep = SweepEngine(max_workers=1).run()
    finally:
        vectorized.configure(previous)
    return sweep


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_vectorized_output_byte_matches_scalar(
    experiment_id, forced_sweep, serial_sweep
):
    """The strongest form of equivalence: identical serialised text."""
    forced = regen.build_payload(
        experiment_id, forced_sweep.results[experiment_id]
    )
    scalar = regen.build_payload(
        experiment_id, serial_sweep.results[experiment_id]
    )
    assert json.dumps(forced, indent=1) == json.dumps(scalar, indent=1)


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_vectorized_output_matches_golden(experiment_id, forced_sweep):
    golden = regen.load_golden(experiment_id)
    actual = regen.build_payload(
        experiment_id, forced_sweep.results[experiment_id]
    )
    assert_jsonable_equal(actual["result"], golden["result"])


class TestJobsPathVectorized:
    #: A grid big enough that auto mode batches every chunk, with a
    #: chunk size that forces several checkpoints.
    SPEC = dict(
        ceas=[16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
        budgets=[0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        alpha=0.5,
        chunk_size=16,
    )

    def run_spec(self, spec, mode_name):
        previous = vectorized.mode()
        vectorized.configure(mode_name)
        try:
            chunks = [execute_chunk(spec, index)
                      for index in range(chunk_count(spec))]
            artifact = encode_artifact(serial_artifact(spec))
        finally:
            vectorized.configure(previous)
        return chunks, artifact

    def test_checkpointed_chunks_byte_identical(self):
        """Every checkpoint payload — not just the final artifact — must
        byte-match between the vectorized and scalar grid paths."""
        spec = JobSpec.sweep(**self.SPEC)
        vec_chunks, vec_artifact = self.run_spec(spec, "auto")
        scalar_chunks, scalar_artifact = self.run_spec(spec, "off")
        assert len(vec_chunks) == len(scalar_chunks) > 1
        for index, (vec, scalar) in enumerate(
            zip(vec_chunks, scalar_chunks)
        ):
            assert json.dumps(vec) == json.dumps(scalar), \
                f"chunk {index} diverged"
        assert vec_artifact == scalar_artifact

    def test_technique_sweep_job_byte_identical(self):
        spec = JobSpec.sweep(
            ceas=[32.0, 64.0, 128.0, 256.0],
            budgets=[1.0, 2.0, 4.0, 8.0, 16.0],
            alpha=0.48,
            techniques=["DRAM", "3D"],
            chunk_size=8,
        )
        _, vec_artifact = self.run_spec(spec, "auto")
        _, scalar_artifact = self.run_spec(spec, "off")
        assert vec_artifact == scalar_artifact
