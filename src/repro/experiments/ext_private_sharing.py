"""Extension experiment: shared vs private L2 under data sharing,
measured with the coherent-cache substrate.

Footnote 1 of the paper asserts that private caches forfeit the
capacity half of the sharing benefit because shared lines replicate.
The analytic variant lives in :class:`repro.core.sharing
.DataSharingModel`; this experiment *measures* both organisations on
the same PARSEC-like traces: the shared L2's off-chip fetch rate vs the
MSI private-cache system's, plus the measured replication factor that
drives the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.series import FigureData, Series
from ..cache.coherence import PrivateCacheSystem
from ..cache.shared_l2 import SharedL2Cache
from ..workloads.parsec_like import ParsecLikeWorkload

__all__ = ["ExtPrivateSharingResult", "run"]


@dataclass(frozen=True)
class ExtPrivateSharingResult:
    figure: FigureData
    #: cores -> (shared off-chip rate, private off-chip rate, replication)
    by_cores: Dict[int, Tuple[float, float, float]]


def run(
    core_counts: Tuple[int, ...] = (4, 8),
    total_cache_bytes: int = 2 * 1024 * 1024,
    accesses_per_core: int = 15_000,
    seed: int = 0,
) -> ExtPrivateSharingResult:
    """Run both organisations with equal total capacity per core count."""
    by_cores: Dict[int, Tuple[float, float, float]] = {}
    for cores in core_counts:
        workload = ParsecLikeWorkload(num_threads=cores, seed=seed)
        # Columns, iterated once per organisation: 13 bytes per access
        # where a list of records holds a ~100-byte object per access.
        accesses = workload.columns(accesses_per_core * cores)

        shared = SharedL2Cache(size_bytes=total_cache_bytes,
                               num_cores=cores)
        for access in accesses:
            shared.access(access.address, core_id=access.core_id,
                          is_write=access.is_write)
        shared_rate = shared.stats.misses / shared.stats.accesses

        private = PrivateCacheSystem(
            num_cores=cores,
            l2_bytes_per_core=total_cache_bytes // cores,
        )
        for access in accesses:
            private.access(access.address, core_id=access.core_id,
                           is_write=access.is_write)
        private.check_invariants()
        by_cores[cores] = (
            shared_rate,
            private.stats.offchip_fetch_rate,
            private.replication_factor,
        )

    figure = FigureData(
        figure_id="Ext-PrivateSharing",
        title="Shared vs private L2 off-chip fetch rate (equal capacity)",
        x_label="cores",
        y_label="off-chip fetches per access",
        notes="footnote 1 measured: replication wastes private capacity",
    )
    figure.add(Series(
        "shared L2",
        tuple((float(c), v[0]) for c, v in by_cores.items()),
    ))
    figure.add(Series(
        "private L2 (MSI)",
        tuple((float(c), v[1]) for c, v in by_cores.items()),
    ))
    return ExtPrivateSharingResult(figure=figure, by_cores=by_cores)


def main() -> None:  # pragma: no cover
    from ..analysis.tables import format_table

    result = run()
    rows = [
        [cores, f"{shared:.4f}", f"{private:.4f}",
         f"{replication:.2f}x"]
        for cores, (shared, private, replication)
        in result.by_cores.items()
    ]
    print(format_table(
        ["cores", "shared L2 fetch rate", "private L2 fetch rate",
         "replication"],
        rows,
    ))
    print("\nreplication > 1x is footnote 1's capacity penalty, measured.")


if __name__ == "__main__":  # pragma: no cover
    main()
