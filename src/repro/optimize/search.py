"""Search strategies: exhaustive enumeration and evolutionary search.

Both strategies evaluate configurations through
:meth:`~repro.core.scaling.BandwidthWallModel.supportable_cores_batch`
(the vectorized kernel) and prune with the deterministic Pareto engine
(:mod:`repro.optimize.pareto`).  Everything here is a **pure function
of the request parameters** — no wall clock, no global RNG — which is
the property the durable-jobs layer leans on:

* **exhaustive** — valid configurations in lexicographic index order,
  sliced into chunks of ``chunk_size``; each chunk's payload carries
  its chunk-local frontier, and assembly merges them (equal to one
  global frontier by dominance transitivity).
* **evolutionary** — generation ``k`` is chunk ``k``.  A generation's
  population depends on its predecessor, so chunk ``k`` *continues*
  from chunk ``k - 1``'s payload, which carries that generation's
  population and fitness beside the cumulative frontier and counters.
  The executor hands the payload in as read back from JSON, on a fresh
  run and on a resumed one alike.  Per-generation RNG is
  ``random.Random(seed * 1_000_003 + generation)`` — no RNG state is
  carried across chunks — so generation ``k`` is a pure function of
  the params and ``k``, and a crash-resumed job reproduces the
  identical artifact bytes.  Without a usable predecessor (chunk 0, or
  a checkpoint written without the carried state) a chunk steps from
  generation 0 through the same step function.

Evaluated rows carry three objectives (see :mod:`.pareto`): buildable
``cores``; ``cache_fraction`` — the die's cache area share at the
continuous solution; and ``traffic`` — relative off-chip traffic at
the *integer* core count (strictly below the budget, and further below
it the more headroom a configuration leaves).  Configurations whose
supportable count floors to zero cores are counted in ``skipped``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..core.scaling import BandwidthWallModel
from ..core.solver import BracketError
from ..core.presets import paper_baseline_design
from .pareto import OBJECTIVES, merge_frontiers, objective_key, \
    pareto_frontier
from .space import SearchSpace

__all__ = [
    "EXHAUSTIVE_STRATEGY",
    "EVOLUTIONARY_STRATEGY",
    "AUTO_STRATEGY",
    "STRATEGIES",
    "EXHAUSTIVE_LIMIT",
    "DEFAULT_GENERATIONS",
    "DEFAULT_POPULATION",
    "DEFAULT_OPTIMIZE_CHUNK",
    "OptimizeParams",
    "resolve_strategy",
    "execute_optimize_chunk",
    "assemble_optimize_artifact",
    "run_search",
]

EXHAUSTIVE_STRATEGY = "exhaustive"
EVOLUTIONARY_STRATEGY = "evolutionary"
AUTO_STRATEGY = "auto"
STRATEGIES = (EXHAUSTIVE_STRATEGY, EVOLUTIONARY_STRATEGY)

#: ``auto`` picks exhaustive at or below this many valid configurations.
EXHAUSTIVE_LIMIT = 4096

DEFAULT_GENERATIONS = 12
DEFAULT_POPULATION = 32

#: Valid configurations per exhaustive chunk.  Large enough that the
#: vectorized kernel amortises well, small enough that a crash loses a
#: bounded slice of work.
DEFAULT_OPTIMIZE_CHUNK = 2048

#: Sub-batch fed to ``supportable_cores_batch`` at a time; bounds peak
#: numpy memory without changing results.
_SUB_BATCH = 512

#: Tournament size for evolutionary parent selection.
_TOURNAMENT = 3

#: Sort key assigned to individuals whose configuration produced no
#: buildable design (worse than any real objective vector).
_INFEASIBLE_KEY = (float("inf"), float("inf"), float("inf"))


@dataclass(frozen=True)
class OptimizeParams:
    """The resolved, canonical inputs of one optimizer run."""

    space: SearchSpace
    ceas: float
    budget: float
    alpha: float
    strategy: str
    seed: int = 0
    generations: int = DEFAULT_GENERATIONS
    population: int = DEFAULT_POPULATION
    chunk_size: int = DEFAULT_OPTIMIZE_CHUNK

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{list(STRATEGIES)}"
            )
        if self.ceas <= 0:
            raise ValueError(f"ceas must be positive, got {self.ceas}")
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.generations <= 0:
            raise ValueError(
                f"generations must be positive, got {self.generations}"
            )
        if self.population <= 0:
            raise ValueError(
                f"population must be positive, got {self.population}"
            )
        if self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )

    @classmethod
    def create(cls, *, ceas: float, budget: float = 1.0,
               alpha: float = 0.5, strategy: Optional[str] = AUTO_STRATEGY,
               seed: int = 0, generations: int = 0, population: int = 0,
               space: Optional[Any] = None) -> "OptimizeParams":
        """Canonicalising constructor.

        ``space`` accepts a :class:`SearchSpace`, a ``{dimension:
        [values]}`` mapping of overrides, or ``None`` for the full
        default space; ``strategy='auto'`` resolves to a concrete
        strategy here and zero ``generations``/``population`` take the
        defaults, so two spellings of one search are equal params.
        """
        if not isinstance(space, SearchSpace):
            space = SearchSpace.from_dict(space)
        return cls(
            space=space,
            ceas=float(ceas),
            budget=float(budget),
            alpha=float(alpha),
            strategy=resolve_strategy(strategy, space),
            seed=int(seed),
            generations=int(generations) or DEFAULT_GENERATIONS,
            population=int(population) or DEFAULT_POPULATION,
        )

    def model(self) -> BandwidthWallModel:
        return BandwidthWallModel(baseline=paper_baseline_design(),
                                  alpha=self.alpha)

    def chunk_count(self, chunk_size: int = 0) -> int:
        """Chunks of a run: generations, or slices of ``chunk_size``
        valid configurations (0 means this run's own chunk size)."""
        if self.strategy == EVOLUTIONARY_STRATEGY:
            return self.generations
        valid = self.space.valid_count()
        return max(1, -(-valid // (chunk_size or self.chunk_size)))

    # -- job-kind protocol (see repro.jobs.spec.KINDS) -----------------

    default_chunk: ClassVar[int] = DEFAULT_OPTIMIZE_CHUNK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ceas": [self.ceas],
            "budgets": [self.budget],
            "alpha": self.alpha,
            "strategy": self.strategy,
            "seed": self.seed,
            "generations": self.generations,
            "population": self.population,
            "space": self.space.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OptimizeParams":
        return cls.create(
            ceas=payload["ceas"][0], budget=payload["budgets"][0],
            alpha=payload["alpha"], strategy=payload["strategy"],
            seed=payload["seed"], generations=payload["generations"],
            population=payload["population"], space=payload.get("space"),
        )

    def execute_chunk(self, index: int, chunk_size: int,
                      previous: Optional[Dict[str, Any]]
                      ) -> Dict[str, Any]:
        return execute_optimize_chunk(
            replace(self, chunk_size=chunk_size), index, previous)

    def assemble(self, payloads: Sequence[Dict[str, Any]]
                 ) -> Dict[str, Any]:
        return assemble_optimize_artifact(self, payloads)

    def cost(self) -> int:
        """Design-point evaluations: valid configurations, or
        generations x population for evolutionary searches."""
        if self.strategy == EVOLUTIONARY_STRATEGY:
            return self.generations * self.population
        return self.space.valid_count()


def resolve_strategy(strategy: Optional[str],
                     space: SearchSpace) -> str:
    """Collapse ``auto``/empty to a concrete strategy for the space."""
    if strategy in (None, "", AUTO_STRATEGY):
        return (EXHAUSTIVE_STRATEGY
                if space.valid_count() <= EXHAUSTIVE_LIMIT
                else EVOLUTIONARY_STRATEGY)
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from "
            f"{[AUTO_STRATEGY] + list(STRATEGIES)}"
        )
    return strategy


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _evaluate_configs(
    model: BandwidthWallModel,
    params: OptimizeParams,
    configs: Sequence[Tuple[int, ...]],
) -> Tuple[List[Dict[str, Any]], int]:
    """Solve every configuration; returns (rows, skipped_count).

    ``skipped`` counts configurations with no buildable design: the
    supportable count floors to zero cores, or the solve itself is
    infeasible (no bracket).  Rows come back in input order.
    """
    space = params.space
    built = [space.effect(config, params.alpha) for config in configs]
    queries = [(params.ceas, params.budget, effect)
               for effect, _ in built]
    solutions: List[Optional[Any]] = [None] * len(queries)
    for start in range(0, len(queries), _SUB_BATCH):
        sub = queries[start:start + _SUB_BATCH]
        try:
            solved = model.supportable_cores_batch(sub)
        except (BracketError, ValueError):
            # A rare unsolvable point poisons the whole sub-batch
            # exception-wise; fall back to per-point solves and record
            # the failures as skipped (None) deterministically.
            solved = []
            for query in sub:
                try:
                    solved.append(model.supportable_cores(*query))
                except (BracketError, ValueError):
                    solved.append(None)
        solutions[start:start + len(solved)] = solved
    rows: List[Dict[str, Any]] = []
    skipped = 0
    for config, (effect, labels), solution in zip(configs, built,
                                                  solutions):
        if solution is None or solution.cores < 1:
            skipped += 1
            continue
        cores = solution.cores
        rows.append({
            "config_key": list(config),
            "config": space.config_values(config),
            "techniques": list(labels),
            "cores": cores,
            "continuous_cores": solution.continuous_cores,
            "cache_fraction": solution.design.cache_area_share,
            "traffic": model.relative_traffic(params.ceas, cores, effect),
            "area_limited": solution.area_limited,
        })
    return rows, skipped


# ----------------------------------------------------------------------
# Exhaustive strategy
# ----------------------------------------------------------------------

def _exhaustive_chunk_configs(params: OptimizeParams,
                              index: int) -> List[Tuple[int, ...]]:
    configs = list(params.space.enumerate_valid())
    start = index * params.chunk_size
    if not 0 <= start < max(len(configs), 1):
        raise IndexError(
            f"chunk index {index} out of range for "
            f"{params.chunk_count()} chunks"
        )
    return configs[start:start + params.chunk_size]


def _execute_exhaustive_chunk(params: OptimizeParams,
                              index: int) -> Dict[str, Any]:
    model = params.model()
    configs = _exhaustive_chunk_configs(params, index)
    rows, skipped = _evaluate_configs(model, params, configs)
    return {
        "chunk": index,
        "evaluated": len(configs),
        "skipped": skipped,
        "candidates": pareto_frontier(rows),
    }


# ----------------------------------------------------------------------
# Evolutionary strategy
# ----------------------------------------------------------------------

def _generation_rng(seed: int, generation: int) -> random.Random:
    """Self-contained RNG per generation — replay needs no state."""
    return random.Random(seed * 1_000_003 + generation)


def _random_config(space: SearchSpace,
                   rng: random.Random) -> Tuple[int, ...]:
    config = tuple(rng.randrange(len(dim.values))
                   for dim in space.dimensions)
    return space.repair(config)


def _mutate(space: SearchSpace, config: Tuple[int, ...],
            rng: random.Random) -> Tuple[int, ...]:
    """Move one random dimension to a different random index."""
    position = rng.randrange(len(space.dimensions))
    width = len(space.dimensions[position].values)
    mutated = list(config)
    if width > 1:
        offset = rng.randrange(1, width)
        mutated[position] = (config[position] + offset) % width
    return space.repair(tuple(mutated))


def _select(population: Sequence[Tuple[int, ...]],
            fitness: Sequence[Tuple[float, float, float]],
            rng: random.Random) -> Tuple[int, ...]:
    """Tournament selection; ties resolve to the earliest draw."""
    contenders = [rng.randrange(len(population))
                  for _ in range(_TOURNAMENT)]
    best = contenders[0]
    for candidate in contenders[1:]:
        if fitness[candidate] < fitness[best]:
            best = candidate
    return population[best]


def _evolve(params: OptimizeParams, model: BandwidthWallModel,
            generation: int,
            state: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Step one generation from ``state``, the previous generation's
    payload (``None`` before generation 0); returns this generation's
    payload: cumulative counters and frontier, population and fitness.
    """
    space = params.space
    rng = _generation_rng(params.seed, generation)
    if state is None:
        state = {"evaluated": 0, "skipped": 0, "frontier": []}
        population = [_random_config(space, rng)
                      for _ in range(params.population)]
    else:
        population = [
            _mutate(space,
                    _select(state["population"], state["fitness"], rng),
                    rng)
            for _ in range(params.population)
        ]
    rows, skipped = _evaluate_configs(model, params, population)
    by_key = {tuple(row["config_key"]): objective_key(row)
              for row in rows}
    return {
        "generation": generation,
        "evaluated": state["evaluated"] + len(population),
        "skipped": state["skipped"] + skipped,
        "frontier": merge_frontiers(state["frontier"], rows),
        "population": population,
        "fitness": [by_key.get(config, _INFEASIBLE_KEY)
                    for config in population],
    }


def _execute_evolution_chunk(params: OptimizeParams, index: int,
                             previous: Optional[Dict[str, Any]]
                             ) -> Dict[str, Any]:
    """Generation ``index``, continued from ``previous`` (chunk
    ``index - 1``'s payload) when it carries its population, else
    stepped from generation 0."""
    model = params.model()
    state = previous if previous and "population" in previous else None
    for generation in range(0 if state is None else index, index + 1):
        state = _evolve(params, model, generation, state)
    return state


# ----------------------------------------------------------------------
# Chunk protocol (behind the params' job-kind methods)
# ----------------------------------------------------------------------

def execute_optimize_chunk(params: OptimizeParams, index: int,
                           previous: Optional[Dict[str, Any]] = None
                           ) -> Dict[str, Any]:
    """One chunk's JSON-ready payload (slice or generation snapshot);
    ``previous`` is chunk ``index - 1``'s payload, which only an
    evolutionary search continues from."""
    count = params.chunk_count()
    if not 0 <= index < count:
        raise IndexError(
            f"chunk index {index} out of range for {count} chunks"
        )
    if params.strategy == EVOLUTIONARY_STRATEGY:
        return _execute_evolution_chunk(params, index, previous)
    return _execute_exhaustive_chunk(params, index)


def assemble_optimize_artifact(
    params: OptimizeParams,
    payloads: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold chunk payloads into the final optimizer artifact."""
    if params.strategy == EVOLUTIONARY_STRATEGY:
        # Every snapshot is cumulative; the last one is the answer.
        final = payloads[-1]
        frontier = pareto_frontier(final["frontier"])
        evaluated = final["evaluated"]
        skipped = final["skipped"]
    else:
        frontier = merge_frontiers(
            *[payload["candidates"] for payload in payloads])
        evaluated = sum(payload["evaluated"] for payload in payloads)
        skipped = sum(payload["skipped"] for payload in payloads)
    request: Dict[str, Any] = {
        "ceas": params.ceas,
        "budget": params.budget,
        "alpha": params.alpha,
        "space": params.space.to_dict(),
    }
    if params.strategy == EVOLUTIONARY_STRATEGY:
        request.update(seed=params.seed,
                       generations=params.generations,
                       population=params.population)
    return {
        "kind": "optimize",
        "strategy": params.strategy,
        "request": request,
        "objectives": list(OBJECTIVES),
        "space_size": params.space.size,
        "valid_configs": params.space.valid_count(),
        "evaluated": evaluated,
        "skipped": skipped,
        "frontier_size": len(frontier),
        "frontier": frontier,
    }


def run_search(params: OptimizeParams) -> Dict[str, Any]:
    """Run a whole search in-process (CLI and benchmark entry point).

    It is the jobs path's serial run, literally, so the two are
    byte-identical by construction.
    """
    from ..jobs.executor import serial_artifact
    from ..jobs.spec import JobSpec

    return serial_artifact(
        JobSpec("optimize", params, chunk_size=params.chunk_size))
