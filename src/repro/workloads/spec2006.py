"""SPEC 2006-like synthetic workloads with *discrete* working sets.

Section 4.1 notes that "individual SPEC2006 applications exhibit more
discrete working set sizes (i.e. once the cache is large enough for the
working set, the miss rate declines to a constant value), and hence they
fit less well with the power law.  However, together their average fits
the power law well" — with a shallow fitted alpha of 0.25.

:class:`DiscreteWorkingSetGenerator` reproduces that structure: a stream
cycles through a handful of nested working sets (inner loops, mid-level
data, whole-footprint sweeps).  Its miss curve has plateaus and cliffs;
averaging several apps with staggered working-set sizes smooths into an
approximate power law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import bulk_random
from .address_stream import MemoryAccess, TraceColumns

__all__ = ["DiscreteWorkingSetGenerator", "SPEC2006_WORKLOADS", "spec2006_generator"]


@dataclass(frozen=True)
class _Region:
    """One working-set region: a range of lines and its access weight."""

    lines: int
    weight: float


class DiscreteWorkingSetGenerator:
    """Accesses drawn from nested fixed-size regions.

    Parameters
    ----------
    region_lines:
        Sizes (in cache lines) of the nested working sets, smallest
        first.  Regions are *nested*: region ``k`` includes all smaller
        regions' lines plus its own.
    region_weights:
        Probability of an access landing in each region's *exclusive*
        part.  Heavier weight on small regions = hot inner loops.
    """

    def __init__(
        self,
        region_lines: Sequence[int],
        region_weights: Sequence[float],
        line_bytes: int = 64,
        word_bytes: int = 8,
        write_fraction: float = 0.15,
        seed: int = 0,
        address_base: int = 0,
    ) -> None:
        if len(region_lines) != len(region_weights):
            raise ValueError("region sizes and weights must align")
        if not region_lines:
            raise ValueError("need at least one region")
        if any(l <= 0 for l in region_lines):
            raise ValueError("region sizes must be positive")
        if list(region_lines) != sorted(region_lines):
            raise ValueError("region sizes must be ascending (nested)")
        total_weight = sum(region_weights)
        if total_weight <= 0:
            raise ValueError("weights must sum to a positive value")
        if not 0 <= write_fraction <= 1:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {write_fraction}"
            )
        self.regions: List[_Region] = [
            _Region(lines, weight / total_weight)
            for lines, weight in zip(region_lines, region_weights)
        ]
        self.line_bytes = line_bytes
        self.word_bytes = word_bytes
        self.write_fraction = write_fraction
        self.address_base = address_base
        self._rng = random.Random(seed)
        #: Sequential sweep cursors, one per region (SPEC-like loops walk
        #: arrays in order rather than at random).
        self._cursors = [0] * len(self.regions)

    @property
    def footprint_lines(self) -> int:
        """Total distinct lines the stream can touch."""
        return self.regions[-1].lines

    def _chunks(self, count: int) -> Iterator[TraceColumns]:
        """``count`` accesses as consecutive column chunks.

        Each access draws ``random()`` (region pick), ``randrange`` (word
        in line) and ``random()`` (store?) from the one generator.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        words_per_line = self.line_bytes // self.word_bytes
        # The running sums the region pick is compared against, in the
        # same float additions as a per-access scan would make.
        thresholds = []
        cumulative = 0.0
        for region in self.regions:
            cumulative += region.weight
            thresholds.append(cumulative)
        last = len(self.regions) - 1
        for start in range(0, count, bulk_random.CHUNK):
            size = min(bulk_random.CHUNK, count - start)
            heads, words, tails = bulk_random.records(
                self._rng, size, 1, words_per_line, 1)
            # The first region whose running sum exceeds the pick (else
            # the last): assigning from the last down, the first wins.
            region_index = np.full(size, last, dtype=np.int64)
            for index in range(last, -1, -1):
                region_index[heads[:, 0] < thresholds[index]] = index
            # Sweep each region sequentially; sequential reuse is what
            # produces the plateau-and-cliff miss curve.
            lines = np.empty(size, dtype=np.int64)
            for index, region in enumerate(self.regions):
                members = np.flatnonzero(region_index == index)
                cursor = self._cursors[index]
                lines[members] = (cursor + np.arange(len(members))) \
                    % region.lines
                self._cursors[index] = (cursor + len(members)) \
                    % region.lines
            address = (np.uint64(self.address_base)
                       + lines.astype(np.uint64) * np.uint64(self.line_bytes)
                       + words.astype(np.uint64)
                       * np.uint64(self.word_bytes))
            yield TraceColumns(address, tails[:, 0] < self.write_fraction,
                               np.zeros(size, dtype=np.int32))

    def columns(self, count: int) -> TraceColumns:
        """The next ``count`` accesses as columns."""
        return TraceColumns.concat(list(self._chunks(count)))

    def accesses(self, count: int) -> Iterator[MemoryAccess]:
        """Yield ``count`` accesses: :meth:`columns` one at a time.

        Draws are made a chunk (:data:`bulk_random.CHUNK` accesses) at a
        time, so stopping early leaves the draws at the chunk's end.
        """
        for chunk in self._chunks(count):
            yield from chunk

    def __iter__(self) -> Iterator[MemoryAccess]:
        while True:
            yield from self.accesses(bulk_random.CHUNK)


#: Eight SPEC-like apps with staggered working sets: name -> (region
#: sizes in lines, weights).  Staggering the cliff positions is what
#: makes the *average* miss curve approximately a (shallow) power law.
SPEC2006_WORKLOADS: Tuple[Tuple[str, Tuple[int, ...], Tuple[float, ...]], ...] = (
    ("spec-a", (64, 1024, 16384), (0.70, 0.20, 0.10)),
    ("spec-b", (128, 2048, 32768), (0.65, 0.25, 0.10)),
    ("spec-c", (32, 512, 8192), (0.75, 0.15, 0.10)),
    ("spec-d", (256, 4096, 65536), (0.60, 0.28, 0.12)),
    ("spec-e", (96, 1536, 24576), (0.68, 0.22, 0.10)),
    ("spec-f", (48, 768, 12288), (0.72, 0.18, 0.10)),
    ("spec-g", (192, 3072, 49152), (0.62, 0.26, 0.12)),
    ("spec-h", (512, 8192, 131072), (0.58, 0.30, 0.12)),
)


def spec2006_generator(name: str, seed: int = 0, **overrides
                       ) -> DiscreteWorkingSetGenerator:
    """Build a SPEC-like generator by preset name."""
    for preset_name, lines, weights in SPEC2006_WORKLOADS:
        if preset_name == name:
            params = dict(
                region_lines=lines, region_weights=weights, seed=seed
            )
            params.update(overrides)
            return DiscreteWorkingSetGenerator(**params)
    names = [n for n, _, _ in SPEC2006_WORKLOADS]
    raise KeyError(f"unknown SPEC workload {name!r}; choose from {names}")
