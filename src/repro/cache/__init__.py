"""Cache-simulator substrate.

Functional (untimed) cache models used to *measure* the analytical
model's inputs: miss-rate-vs-size curves (Figure 1), write-back ratios,
unused-word fractions, and shared-line fractions (Figure 14).
"""

from .block import AccessResult, CacheLine
from .coherence import CoherenceStats, MSIState, PrivateCacheSystem
from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_policy,
)
from .set_assoc import SetAssociativeCache
from .shared_l2 import SharedL2Cache
from .stats import CacheStats

__all__ = [
    "AccessResult",
    "CacheLine",
    "CacheStats",
    "SetAssociativeCache",
    "SharedL2Cache",
    "PrivateCacheSystem",
    "MSIState",
    "CoherenceStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "TreePLRUPolicy",
    "make_policy",
]
