"""Extension experiment: the line-size trade, measured in the simulator.

Section 6.3 argues smaller cache lines cut traffic both directly (fewer
unused bytes moved) and indirectly (no space wasted on unused words),
at the cost of more misses.  The analytical model encodes that as the
dual ``1/(1-f)`` factor; this experiment measures the raw trade by
running the same sparse-spatial-locality workload through an 8-way LRU
cache at line sizes from 16B to 256B and reporting misses and fetched
bytes per access.  The miss flags come from the offline per-set
stack-distance replay (:func:`~repro.cache.set_assoc.lru_misses`),
identical to replaying the trace through the set-associative simulator.

Expected shape (asserted by the bench): fetched bytes per access *rise*
with line size on a workload that uses few words per line — the waste
the paper's SmCl technique reclaims — while the miss count falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..analysis.series import FigureData, Series
from ..cache.set_assoc import lru_misses
from ..workloads.stack_distance import PowerLawTraceGenerator

__all__ = ["ExtLineSizeResult", "run"]

DEFAULT_LINE_SIZES: Tuple[int, ...] = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class ExtLineSizeResult:
    figure: FigureData
    #: line size -> (miss rate, fetched bytes per access)
    by_line_size: Dict[int, Tuple[float, float]]


def run(
    cache_bytes: int = 64 * 1024,
    line_sizes: Tuple[int, ...] = DEFAULT_LINE_SIZES,
    accesses: int = 60_000,
    touched_words_per_64b: int = 2,
    alpha: float = 0.5,
    seed: int = 17,
) -> ExtLineSizeResult:
    """Measure the line-size trade on a sparse workload.

    The workload touches ``touched_words_per_64b`` of every 8 words in
    a 64-byte region, mimicking the paper's ~40-75% unused-data setting.
    """
    trace = PowerLawTraceGenerator(
        alpha=alpha,
        working_set_lines=1 << 13,   # 64B-granularity regions
        line_bytes=64,               # generator's region granularity
        touched_words=touched_words_per_64b,
        write_fraction=0.2,
        seed=seed,
    ).columns(accesses)
    by_line_size: Dict[int, Tuple[float, float]] = {}
    for line_size in line_sizes:
        misses = int(np.count_nonzero(lru_misses(
            trace.address, cache_bytes, line_size, associativity=8)))
        by_line_size[line_size] = (
            misses / accesses,
            misses * line_size / accesses,
        )
    figure = FigureData(
        figure_id="Ext-LineSize",
        title="Cache line size vs misses and fetched traffic",
        x_label="line size (bytes)",
        y_label="miss rate / bytes per access",
        notes="sparse spatial locality: big lines fetch mostly unused "
              "bytes (the waste SmCl reclaims)",
    )
    figure.add(Series(
        "miss rate",
        tuple((float(size), values[0])
              for size, values in by_line_size.items()),
    ))
    figure.add(Series(
        "fetched bytes per access",
        tuple((float(size), values[1])
              for size, values in by_line_size.items()),
    ))
    return ExtLineSizeResult(figure=figure, by_line_size=by_line_size)


def main() -> None:  # pragma: no cover
    from ..analysis.tables import format_table

    result = run()
    rows = [
        [size, f"{miss_rate:.4f}", f"{bytes_per_access:.1f}"]
        for size, (miss_rate, bytes_per_access)
        in result.by_line_size.items()
    ]
    print(format_table(
        ["line bytes", "miss rate", "fetched B/access"], rows
    ))
    print("\nsmall lines: more misses, far less traffic — the dual trade "
          "of Section 6.3.")


if __name__ == "__main__":  # pragma: no cover
    main()
