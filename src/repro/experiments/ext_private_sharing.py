"""Extension experiment: shared vs private L2 under data sharing,
measured with the coherent-cache substrate.

Footnote 1 of the paper asserts that private caches forfeit the
capacity half of the sharing benefit because shared lines replicate.
The analytic variant lives in :class:`repro.core.sharing
.DataSharingModel`; this experiment *measures* both organisations on
the same PARSEC-like traces: the shared L2's off-chip fetch rate vs the
MSI private-cache system's, plus the measured replication factor that
drives the difference.  Both are offline replays of the whole trace
(:func:`~repro.cache.set_assoc.lru_misses` for the shared L2,
:func:`~repro.cache.coherence.replay_private` for the private caches),
equal to feeding :class:`~repro.cache.shared_l2.SharedL2Cache` and
:class:`~repro.cache.coherence.PrivateCacheSystem` one access at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..analysis.series import FigureData, Series
from ..cache.coherence import replay_private
from ..cache.set_assoc import lru_misses
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
        trace = workload.columns(accesses_per_core * cores)
        # The shared L2: 64-byte lines, 16 ways.
        shared_misses = lru_misses(trace.address, total_cache_bytes, 64, 16)
        private, replication = replay_private(
            trace, cores, total_cache_bytes // cores)
        by_cores[cores] = (
            int(np.count_nonzero(shared_misses)) / len(trace),
            private.offchip_fetch_rate,
            replication,
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
