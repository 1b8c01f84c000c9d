"""Search strategies: chunk protocol, determinism, strategy resolution.

The load-bearing property is that ``run_search`` (the serial path), a
chunk-at-a-time execution, and any crash-resumed replay all produce the
same artifact — byte-for-byte once encoded.  Both strategies are pinned
here through the chunk protocol the jobs executor uses.
"""

import json

import pytest

from repro.jobs.executor import encode_artifact
from repro.optimize import (
    DEFAULT_GENERATIONS,
    DEFAULT_POPULATION,
    EXHAUSTIVE_LIMIT,
    OptimizeParams,
    SearchSpace,
    assemble_optimize_artifact,
    default_space,
    execute_optimize_chunk,
    resolve_strategy,
    run_search,
)

#: 2 x 2 x 2 x 2 = 16 valid configs — milliseconds to exhaust.
TINY = {
    "cache_compression": [1.0, 2.0],
    "link_compression": [1.0, 2.0],
    "dram_density": [1.0, 8.0],
    "stacked_layers": [0],
    "line_unused": [0.0],
    "filter_unused": [0.0, 0.4],
    "core_area_fraction": [1.0],
    "sharing_fraction": [0.0],
}


def tiny_params(**overrides):
    defaults = dict(space=SearchSpace.build(TINY), ceas=256.0,
                    budget=4.0, alpha=0.5, strategy="exhaustive")
    defaults.update(overrides)
    return OptimizeParams(**defaults)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            tiny_params(strategy="simulated-annealing")
        with pytest.raises(ValueError, match="ceas must be positive"):
            tiny_params(ceas=0.0)
        with pytest.raises(ValueError, match="budget must be positive"):
            tiny_params(budget=-1.0)
        with pytest.raises(ValueError, match="generations"):
            tiny_params(generations=0)
        with pytest.raises(ValueError, match="population"):
            tiny_params(population=-3)
        with pytest.raises(ValueError, match="chunk_size"):
            tiny_params(chunk_size=0)

    def test_chunk_count_exhaustive_is_ceil_division(self):
        assert tiny_params(chunk_size=16).chunk_count() == 1
        assert tiny_params(chunk_size=7).chunk_count() == 3
        assert tiny_params(chunk_size=1).chunk_count() == 16

    def test_chunk_count_evolutionary_is_generations(self):
        params = tiny_params(strategy="evolutionary", generations=5)
        assert params.chunk_count() == 5

    def test_chunk_index_bounds(self):
        params = tiny_params(chunk_size=7)
        with pytest.raises(IndexError):
            execute_optimize_chunk(params, 3)
        with pytest.raises(IndexError):
            execute_optimize_chunk(params, -1)


class TestResolveStrategy:
    def test_auto_picks_exhaustive_for_small_spaces(self):
        assert resolve_strategy("auto", SearchSpace.build(TINY)) == \
            "exhaustive"
        assert resolve_strategy(None, SearchSpace.build(TINY)) == \
            "exhaustive"

    def test_auto_picks_evolutionary_for_the_default_space(self):
        space = default_space()
        assert space.valid_count() > EXHAUSTIVE_LIMIT
        assert resolve_strategy("", space) == "evolutionary"

    def test_explicit_strategy_passes_through(self):
        space = default_space()
        assert resolve_strategy("exhaustive", space) == "exhaustive"

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_strategy("bogus", default_space())


class TestExhaustive:
    def test_artifact_shape_and_counts(self):
        artifact = run_search(tiny_params())
        assert artifact["kind"] == "optimize"
        assert artifact["strategy"] == "exhaustive"
        assert artifact["objectives"] == \
            ["cores", "cache_fraction", "traffic"]
        assert artifact["valid_configs"] == 16
        assert artifact["evaluated"] == 16
        assert artifact["evaluated"] - artifact["skipped"] >= \
            artifact["frontier_size"] >= 1
        assert len(artifact["frontier"]) == artifact["frontier_size"]

    def test_frontier_rows_are_mutually_non_dominated(self):
        from repro.optimize import dominates, objective_key
        frontier = run_search(tiny_params())["frontier"]
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not dominates(objective_key(a),
                                         objective_key(b))

    def test_chunked_equals_serial_bytes_for_any_chunk_size(self):
        whole = encode_artifact(run_search(tiny_params(chunk_size=16)))
        for chunk_size in (1, 5, 7):
            params = tiny_params(chunk_size=chunk_size)
            payloads = [execute_optimize_chunk(params, index)
                        for index in range(params.chunk_count())]
            chunked = assemble_optimize_artifact(params, payloads)
            assert encode_artifact(chunked) == whole

    def test_frontier_beats_baseline(self):
        """Every frontier point supports at least as many cores as the
        technique-free baseline configuration."""
        params = tiny_params()
        baseline = params.model().supportable_cores(
            params.ceas, traffic_budget=params.budget)
        frontier = run_search(params)["frontier"]
        assert max(r["cores"] for r in frontier) >= baseline.cores

    def test_rows_record_config_both_ways(self):
        artifact = run_search(tiny_params())
        space = SearchSpace.build(TINY)
        for entry in artifact["frontier"]:
            values = space.config_values(entry["config_key"])
            assert entry["config"] == values


class TestEvolutionary:
    def evo_params(self, **overrides):
        defaults = dict(strategy="evolutionary", seed=7, generations=4,
                        population=8)
        defaults.update(overrides)
        return tiny_params(**defaults)

    def test_same_seed_is_byte_identical(self):
        first = encode_artifact(run_search(self.evo_params()))
        second = encode_artifact(run_search(self.evo_params()))
        assert first == second

    def test_different_seeds_explore_differently(self):
        a = run_search(self.evo_params(seed=1))
        b = run_search(self.evo_params(seed=2))
        assert a["evaluated"] == b["evaluated"] == 32
        # The frontiers may coincide on a tiny space, but the artifacts
        # record the seed, so the requests stay distinguishable.
        assert a["request"]["seed"] != b["request"]["seed"]

    def test_snapshots_are_cumulative(self):
        params = self.evo_params()
        snapshots = [execute_optimize_chunk(params, index)
                     for index in range(params.chunk_count())]
        evaluated = [snap["evaluated"] for snap in snapshots]
        assert evaluated == [8, 16, 24, 32]
        assert [snap["generation"] for snap in snapshots] == [0, 1, 2, 3]

    def test_replay_from_any_generation_matches(self):
        """Chunk k without a predecessor replays generations 0..k; it
        must equal chunk k continued from chunks 0..k-1 handed over
        through JSON (what a crash-resumed worker relies on)."""
        params = self.evo_params()
        previous = None
        for index in range(4):
            continued = execute_optimize_chunk(params, index, previous)
            previous = json.loads(json.dumps(continued))
        cold = execute_optimize_chunk(params, 3)
        assert json.dumps(cold, sort_keys=True) == \
            json.dumps(continued, sort_keys=True)

    def test_search_evaluates_one_population_per_generation(
            self, monkeypatch):
        from repro.optimize import search

        sizes = []
        evaluate = search._evaluate_configs

        def counting(model, params, configs):
            sizes.append(len(configs))
            return evaluate(model, params, configs)

        monkeypatch.setattr(search, "_evaluate_configs", counting)
        run_search(self.evo_params(generations=10))
        assert sizes == [8] * 10

    def test_artifact_records_evolution_request(self):
        artifact = run_search(self.evo_params())
        request = artifact["request"]
        assert request["seed"] == 7
        assert request["generations"] == 4
        assert request["population"] == 8
        assert artifact["strategy"] == "evolutionary"

    def test_defaults_applied(self):
        params = OptimizeParams(space=default_space(), ceas=256.0,
                                budget=2.0, alpha=0.5,
                                strategy="evolutionary")
        assert params.generations == DEFAULT_GENERATIONS
        assert params.population == DEFAULT_POPULATION
