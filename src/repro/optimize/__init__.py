"""Design-space optimizer: Pareto search over the technique space.

Inverts the paper's forward question ("how many cores does this
technique stack support?") into a search: given area, bandwidth and
alpha constraints, find the Pareto-optimal technique configurations
over supportable cores (maximised), cache die fraction and off-chip
traffic (both minimised).  See ``docs/OPTIMIZER.md``.
"""

from .pareto import OBJECTIVES, dominates, merge_frontiers, \
    objective_key, pareto_frontier
from .search import (
    AUTO_STRATEGY,
    DEFAULT_GENERATIONS,
    DEFAULT_POPULATION,
    EVOLUTIONARY_STRATEGY,
    EXHAUSTIVE_LIMIT,
    EXHAUSTIVE_STRATEGY,
    STRATEGIES,
    OptimizeParams,
    assemble_optimize_artifact,
    execute_optimize_chunk,
    resolve_strategy,
    run_search,
)
from .space import DIMENSION_NAMES, Dimension, SearchSpace, default_space

__all__ = [
    "AUTO_STRATEGY",
    "DEFAULT_GENERATIONS",
    "DEFAULT_POPULATION",
    "DIMENSION_NAMES",
    "Dimension",
    "EVOLUTIONARY_STRATEGY",
    "EXHAUSTIVE_LIMIT",
    "EXHAUSTIVE_STRATEGY",
    "OBJECTIVES",
    "OptimizeParams",
    "STRATEGIES",
    "SearchSpace",
    "assemble_optimize_artifact",
    "default_space",
    "dominates",
    "execute_optimize_chunk",
    "merge_frontiers",
    "objective_key",
    "pareto_frontier",
    "resolve_strategy",
    "run_search",
]
