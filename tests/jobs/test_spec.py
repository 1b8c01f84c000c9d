"""JobSpec construction, serialisation and chunk planning."""

import json

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from repro.jobs.spec import (
    DEFAULT_EXPERIMENT_CHUNK,
    DEFAULT_SWEEP_CHUNK,
    KINDS,
    ExperimentsParams,
    JobSpec,
    SweepParams,
)
from repro.jobs.store import JobStore
from repro.service.validation import VALIDATORS

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

#: One spec of each kind and the exact stored JSON the previous,
#: per-kind-field JobSpec wrote for it: jobs already in a store must
#: still load and resume.
STORED = [
    (lambda: JobSpec.experiments(["fig2", "Figure 13"], chunk_size=1),
     '{"kind": "experiments", "chunk_size": 1, "ids": ["fig2", "fig13"]}'),
    (lambda: JobSpec.sweep(ceas=[16, 32], budgets=[1, 2], alpha=0.45,
                           techniques=["DRAM=8"], chunk_size=3),
     '{"kind": "sweep", "chunk_size": 3, "ceas": [16.0, 32.0], '
     '"budgets": [1.0, 2.0], "alpha": 0.45, "techniques": ["DRAM=8"]}'),
    (lambda: JobSpec.optimize(ceas=256, budget=2, strategy="evolutionary",
                              seed=11, generations=5, population=8,
                              space=TINY_SPACE, chunk_size=5),
     '{"kind": "optimize", "chunk_size": 5, "ceas": [256.0], '
     '"budgets": [2.0], "alpha": 0.5, "strategy": "evolutionary", '
     '"seed": 11, "generations": 5, "population": 8, "space": '
     '{"cache_compression": [1.0, 2.0], "link_compression": [1.0, 2.0], '
     '"dram_density": [1.0, 8.0], "stacked_layers": [0.0], '
     '"line_unused": [0.0], "filter_unused": [0.0, 0.4], '
     '"core_area_fraction": [1.0], "sharing_fraction": [0.0]}}'),
    (lambda: JobSpec.trace_job(source="sharing", units=[4, 8],
                               accesses=2000, working_set_lines=512,
                               line_counts=[64, 16, 32], associativity=4),
     '{"kind": "trace", "chunk_size": 0, "trace": {"accesses": 2000, '
     '"associativity": 4, "fit_max_lines": 2048, "fit_min_lines": 0, '
     '"line_bytes": 64, "line_counts": [16, 32, 64], "seed": 0, '
     '"source": "sharing", "units": [4, 8], "working_set_lines": 512}}'),
]


class TestConstruction:
    def test_experiments_normalises_ids(self):
        spec = JobSpec.experiments(["Figure 2", "table2"])
        assert spec.params.ids == ("fig2", "table2")

    def test_experiments_defaults_to_whole_registry(self):
        from repro.experiments.runner import experiment_ids

        spec = JobSpec.experiments()
        assert spec.params.ids == tuple(experiment_ids())
        assert len(spec.params.ids) == 30

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            JobSpec.experiments(["not-an-experiment"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("bogus", ExperimentsParams(ids=("fig2",)))

    def test_params_must_match_kind(self):
        with pytest.raises(ValueError, match="SweepParams"):
            JobSpec("sweep", ExperimentsParams(ids=("fig2",)))

    def test_sweep_requires_ceas(self):
        with pytest.raises(ValueError, match="at least one ceas"):
            JobSpec.sweep(ceas=())

    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            JobSpec("experiments", ExperimentsParams(ids=("fig2",)),
                    chunk_size=-1)


class TestKindTable:
    def test_validators_cover_exactly_the_job_kinds(self):
        assert list(VALIDATORS) == list(KINDS)


class TestSerialisation:
    @pytest.mark.parametrize("build, stored", STORED,
                             ids=[kind for kind in KINDS])
    def test_stored_form_is_unchanged(self, build, stored):
        spec = build()
        assert json.dumps(spec.to_dict()) == stored
        assert JobSpec.from_dict(json.loads(stored)) == spec

    def test_experiments_round_trip(self):
        spec = JobSpec.experiments(["fig2", "fig3"], chunk_size=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_sweep_round_trip(self):
        spec = JobSpec.sweep(ceas=[16, 32], budgets=[1.0, 2.0],
                             alpha=0.45, techniques=("DRAM=8",),
                             chunk_size=3)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            JobSpec.from_dict([1, 2])

    @pytest.mark.parametrize("build, stored", STORED,
                             ids=[kind for kind in KINDS])
    def test_store_round_trips_every_stored_form(self, tmp_path, build,
                                                 stored):
        spec = build()
        record = JobStore(tmp_path).submit(spec,
                                           chunks_total=chunk_count(spec))
        assert json.dumps(record.spec) == stored
        assert record.job_spec() == spec

    def test_new_sweep_is_stored_with_its_chunk_size(self, tmp_path):
        spec = JobSpec.sweep(ceas=range(30), budgets=range(1, 31))
        record = JobStore(tmp_path).submit(spec,
                                           chunks_total=chunk_count(spec))
        assert record.spec["chunk_size"] == DEFAULT_SWEEP_CHUNK
        assert chunk_count(record.job_spec()) == record.chunks_total == 4

    def test_stored_sweep_zero_means_64_points(self):
        stored = JobSpec.sweep(ceas=[16.0], chunk_size=0).to_dict()
        assert JobSpec.from_stored(stored).effective_chunk_size == 64
        assert JobSpec.from_dict(stored).effective_chunk_size == \
            DEFAULT_SWEEP_CHUNK

    def test_stored_zero_of_other_kinds_keeps_their_default(self):
        for build, stored in STORED:
            payload = dict(json.loads(stored), chunk_size=0)
            if payload["kind"] != "sweep":
                assert JobSpec.from_stored(payload) == \
                    JobSpec.from_dict(payload)


def chunk_ids(spec):
    return [[entry["experiment_id"]
             for entry in execute_chunk(spec, index)["experiments"]]
            for index in range(chunk_count(spec))]


class TestPlanning:
    def test_experiment_default_is_one_id_per_chunk(self):
        spec = JobSpec.experiments(["fig2", "fig3", "table2"])
        assert spec.effective_chunk_size == DEFAULT_EXPERIMENT_CHUNK
        assert chunk_ids(spec) == [["fig2"], ["fig3"], ["table2"]]

    def test_sweep_default_chunk(self):
        spec = JobSpec.sweep(ceas=[16.0])
        assert spec.effective_chunk_size == DEFAULT_SWEEP_CHUNK

    def test_uneven_tail_chunk(self):
        spec = JobSpec.experiments(["fig2", "fig3", "table2"],
                                   chunk_size=2)
        assert chunk_ids(spec) == [["fig2", "fig3"], ["table2"]]
        assert chunk_count(spec) == 2

    def test_sweep_plan_covers_grid(self):
        spec = JobSpec.sweep(ceas=[16, 32, 64], budgets=[1.0, 2.0],
                             chunk_size=4)
        assert [len(execute_chunk(spec, index)["points"])
                for index in range(chunk_count(spec))] == [4, 2]

    def test_plan_is_pure_function_of_round_tripped_spec(self):
        spec = JobSpec.sweep(ceas=[16, 32, 64], budgets=[1.0, 2.0],
                             chunk_size=4)
        again = JobSpec.from_dict(spec.to_dict())
        assert chunk_count(again) == chunk_count(spec)
        assert execute_chunk(again, 1) == execute_chunk(spec, 1)

    def test_sweep_default_chunk_is_one_kernel_batch(self):
        from repro.experiments.engine import _BATCH_STRIDE

        assert DEFAULT_SWEEP_CHUNK == _BATCH_STRIDE
        assert chunk_count(JobSpec.sweep(ceas=range(30),
                                         budgets=range(1, 31))) == 4

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 256, 300])
    def test_sweep_artifact_bytes_do_not_depend_on_chunk_size(
            self, chunk_size):
        grid = dict(ceas=[16.0 + 8.0 * i for i in range(30)],
                    budgets=[0.5 + 0.25 * j for j in range(10)],
                    alpha=0.4, techniques=["CC=2", "DRAM=4"])
        whole = JobSpec.sweep(**grid, chunk_size=300)
        assert chunk_count(whole) == 1
        spec = JobSpec.sweep(**grid, chunk_size=chunk_size)
        assert encode_artifact(serial_artifact(spec)) == \
            encode_artifact(serial_artifact(whole))

    def test_sweep_rows_build_only_their_slice(self):
        params = SweepParams(ceas=(16.0, 24.0, 32.0, 48.0, 64.0),
                             budgets=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0),
                             techniques=("LC=2",))
        everything = params.rows()
        assert len(everything) == 35
        for start, stop in [(0, 35), (0, 6), (3, 17), (6, 8), (13, 14),
                            (20, 35), (34, None), (29, 40), (9, 9)]:
            assert params.rows(start, stop) == everything[start:stop]

    def test_execute_chunk_rejects_bad_index(self):
        spec = JobSpec.experiments(["fig13"])
        with pytest.raises(IndexError):
            execute_chunk(spec, 5)
