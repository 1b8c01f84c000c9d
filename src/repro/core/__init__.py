"""The paper's analytical model: power law, traffic, scaling, techniques.

This subpackage is the primary contribution of the reproduced paper —
everything needed to answer "how many cores can a future CMP support
under a memory-traffic budget, with and without bandwidth-conservation
techniques".
"""

from .amdahl import (
    CombinedDesignPoint,
    CombinedWallModel,
    asymmetric_speedup,
    best_symmetric_design,
    dynamic_speedup,
    symmetric_speedup,
)
from .area import ChipDesign, cache_bytes_for_ceas, ceas_for_cache_bytes
from .area_overheads import (
    InterconnectModel,
    OverheadAwareWallModel,
    UncoreModel,
)
from .combos import PAPER_COMBINATIONS, TechniqueStack, paper_combination
from .heterogeneous import (
    BASE_CORE,
    BIG_CORE,
    LITTLE_CORE,
    CoreType,
    HeterogeneousMix,
    HeterogeneousWallModel,
    MixSolution,
)
from .multithreading import MultithreadedWallModel, SMTParameters
from .roadmap import (
    FLAT_ROADMAP,
    ITRS_ROADMAP,
    OPTIMISTIC_ROADMAP,
    BandwidthRoadmap,
    RoadmapPoint,
    wall_onset,
)
from .powerlaw import (
    ALPHA_AVERAGE,
    ALPHA_COMMERCIAL_AVG,
    ALPHA_COMMERCIAL_MAX,
    ALPHA_COMMERCIAL_MIN,
    ALPHA_SPEC2006_AVG,
    PowerLawMissModel,
)
from .power import PowerAwarePoint, PowerAwareWallModel, PowerParameters
from .presets import (
    TABLE2_ROWS,
    Table2Row,
    paper_baseline_design,
    paper_baseline_model,
)
from .scaling import (
    PAPER_GENERATION_FACTORS,
    BandwidthWallModel,
    GenerationPoint,
    ScalingSolution,
)
from .sharing import DataSharingModel
from .solver import BracketError, floor_cores, solve_increasing
from .techniques import (
    ALL_TECHNIQUE_TYPES,
    NEUTRAL_EFFECT,
    AssumptionLevel,
    CacheCompression,
    CacheLinkCompression,
    Category,
    DRAMCache,
    LinkCompression,
    SectoredCache,
    SmallCacheLines,
    SmallerCores,
    Technique,
    TechniqueEffect,
    ThreeDStackedCache,
    UnusedDataFiltering,
)

__all__ = [
    "ChipDesign",
    "cache_bytes_for_ceas",
    "ceas_for_cache_bytes",
    "PowerLawMissModel",
    "ALPHA_AVERAGE",
    "ALPHA_COMMERCIAL_AVG",
    "ALPHA_COMMERCIAL_MIN",
    "ALPHA_COMMERCIAL_MAX",
    "ALPHA_SPEC2006_AVG",
    "BandwidthWallModel",
    "ScalingSolution",
    "GenerationPoint",
    "PAPER_GENERATION_FACTORS",
    "DataSharingModel",
    "TechniqueStack",
    "PAPER_COMBINATIONS",
    "paper_combination",
    "paper_baseline_design",
    "paper_baseline_model",
    "Table2Row",
    "TABLE2_ROWS",
    "AssumptionLevel",
    "Category",
    "Technique",
    "TechniqueEffect",
    "NEUTRAL_EFFECT",
    "ALL_TECHNIQUE_TYPES",
    "CacheCompression",
    "DRAMCache",
    "ThreeDStackedCache",
    "UnusedDataFiltering",
    "SmallerCores",
    "LinkCompression",
    "SectoredCache",
    "SmallCacheLines",
    "CacheLinkCompression",
    "solve_increasing",
    "floor_cores",
    "BracketError",
    # extensions (the paper's acknowledged limitations, modelled)
    "symmetric_speedup",
    "asymmetric_speedup",
    "dynamic_speedup",
    "best_symmetric_design",
    "CombinedWallModel",
    "CombinedDesignPoint",
    "CoreType",
    "HeterogeneousMix",
    "HeterogeneousWallModel",
    "MixSolution",
    "BIG_CORE",
    "BASE_CORE",
    "LITTLE_CORE",
    "SMTParameters",
    "MultithreadedWallModel",
    "BandwidthRoadmap",
    "RoadmapPoint",
    "wall_onset",
    "ITRS_ROADMAP",
    "OPTIMISTIC_ROADMAP",
    "FLAT_ROADMAP",
    "UncoreModel",
    "InterconnectModel",
    "OverheadAwareWallModel",
    "PowerParameters",
    "PowerAwareWallModel",
    "PowerAwarePoint",
]
