"""repro — a reproduction of "Scaling the Bandwidth Wall" (ISCA 2009).

The package has two halves:

* :mod:`repro.core` — the paper's analytical model: the power law of
  cache misses, the CMP memory-traffic model, the core-scaling solver,
  and every bandwidth-conservation technique of Section 6.
* the measurement substrates the paper's inputs came from, rebuilt in
  Python: a cache simulator (:mod:`repro.cache`), synthetic workload
  generators (:mod:`repro.workloads`) and a bounded-bandwidth memory
  system (:mod:`repro.memory`), tied together by :mod:`repro.analysis`
  and the per-figure experiment drivers in :mod:`repro.experiments`.

Quickstart
----------
>>> from repro import paper_baseline_model
>>> model = paper_baseline_model()
>>> model.supportable_cores(32).cores   # next generation, constant traffic
11
"""

from .core import (
    ALL_TECHNIQUE_TYPES,
    ALPHA_AVERAGE,
    BASE_CORE,
    BIG_CORE,
    FLAT_ROADMAP,
    ITRS_ROADMAP,
    LITTLE_CORE,
    OPTIMISTIC_ROADMAP,
    BandwidthRoadmap,
    CombinedDesignPoint,
    CombinedWallModel,
    CoreType,
    HeterogeneousMix,
    HeterogeneousWallModel,
    MixSolution,
    MultithreadedWallModel,
    RoadmapPoint,
    SMTParameters,
    asymmetric_speedup,
    best_symmetric_design,
    dynamic_speedup,
    symmetric_speedup,
    wall_onset,
    ALPHA_COMMERCIAL_AVG,
    ALPHA_COMMERCIAL_MAX,
    ALPHA_COMMERCIAL_MIN,
    ALPHA_SPEC2006_AVG,
    NEUTRAL_EFFECT,
    PAPER_COMBINATIONS,
    PAPER_GENERATION_FACTORS,
    TABLE2_ROWS,
    AssumptionLevel,
    BandwidthWallModel,
    CacheCompression,
    CacheLinkCompression,
    Category,
    ChipDesign,
    DataSharingModel,
    DRAMCache,
    GenerationPoint,
    LinkCompression,
    PowerLawMissModel,
    ScalingSolution,
    SectoredCache,
    SmallCacheLines,
    SmallerCores,
    Table2Row,
    Technique,
    TechniqueEffect,
    TechniqueStack,
    ThreeDStackedCache,
    UnusedDataFiltering,
    paper_baseline_design,
    paper_baseline_model,
    paper_combination,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ChipDesign",
    "PowerLawMissModel",
    "BandwidthWallModel",
    "ScalingSolution",
    "GenerationPoint",
    "DataSharingModel",
    "TechniqueStack",
    "Technique",
    "TechniqueEffect",
    "AssumptionLevel",
    "Category",
    "CacheCompression",
    "DRAMCache",
    "ThreeDStackedCache",
    "UnusedDataFiltering",
    "SmallerCores",
    "LinkCompression",
    "SectoredCache",
    "SmallCacheLines",
    "CacheLinkCompression",
    "NEUTRAL_EFFECT",
    "ALL_TECHNIQUE_TYPES",
    "PAPER_COMBINATIONS",
    "PAPER_GENERATION_FACTORS",
    "TABLE2_ROWS",
    "Table2Row",
    "ALPHA_AVERAGE",
    "ALPHA_COMMERCIAL_AVG",
    "ALPHA_COMMERCIAL_MIN",
    "ALPHA_COMMERCIAL_MAX",
    "ALPHA_SPEC2006_AVG",
    "paper_baseline_design",
    "paper_baseline_model",
    "paper_combination",
    # extensions
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
]
