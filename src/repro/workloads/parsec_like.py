"""PARSEC-like multithreaded workloads (the Figure 14 measurement input).

Figure 14 shows that the fraction of shared cache lines *declines* as a
PARSEC workload runs on more cores (from ~17.5% at 4 cores to ~15% at
16).  Bienia et al.'s explanation — quoted by the paper — is structural:
"while the shared data set size remains somewhat constant, each new
thread requires its own private working set".

:class:`ParsecLikeWorkload` encodes exactly that structure: a fixed-size
shared region touched by every thread with probability
``shared_access_fraction``, plus one private region per thread.  Total
private footprint grows linearly with the thread count while the shared
footprint stays put, so the shared fraction of evicted lines falls with
core count — reproducing the figure's shape without PARSEC itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import bulk_random
from .address_stream import MemoryAccess, TraceColumns

__all__ = ["ParsecLikeWorkload"]

#: Private regions are laid out after the shared region with this stride
#: (in lines) so threads never alias each other's lines.
_PRIVATE_REGION_STRIDE = 1 << 22


@dataclass(frozen=True)
class ParsecLikeWorkload:
    """A multithreaded stream with constant shared + per-thread private data.

    Parameters
    ----------
    num_threads:
        One thread per core.
    shared_lines:
        Size of the shared region (constant across thread counts —
        "problem scaling" keeps the shared data set fixed).
    private_lines_per_thread:
        Size of each thread's own working set.
    shared_access_fraction:
        Probability that an access targets the shared region.
    reuse_alpha:
        Tail index of the within-region reuse pattern (temporal
        locality); both regions reuse recently-touched lines with a
        Pareto profile so the stream is cacheable.
    """

    num_threads: int
    shared_lines: int = 16384
    private_lines_per_thread: int = 10240
    shared_access_fraction: float = 0.40
    write_fraction: float = 0.25
    line_bytes: int = 64
    seed: int = 0
    #: Index-skew exponents: an access picks line ``u**skew * region``
    #: for uniform u, so higher exponents concentrate on a hot front.
    #: Shared data defaults to uniform (every shared line is genuinely
    #: shared among threads); private data is loop-skewed.
    shared_skew: float = 1.0
    private_skew: float = 2.0

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError(f"need >= 1 thread, got {self.num_threads}")
        if self.shared_lines < 1 or self.private_lines_per_thread < 1:
            raise ValueError("region sizes must be positive")
        if not 0 <= self.shared_access_fraction <= 1:
            raise ValueError(
                "shared_access_fraction must be in [0, 1], got "
                f"{self.shared_access_fraction}"
            )
        if self.shared_lines >= _PRIVATE_REGION_STRIDE:
            raise ValueError("shared region too large for the address layout")
        if self.private_lines_per_thread >= _PRIVATE_REGION_STRIDE:
            raise ValueError("private region too large for the address layout")
        if self.shared_skew < 1 or self.private_skew < 1:
            raise ValueError("skew exponents must be >= 1")

    def _chunks(self, count: int) -> Iterator[TraceColumns]:
        """``count`` accesses, round-robin across threads, as chunks.

        Each thread's accesses are drawn hot-first: line index
        ``floor(u^(1/skew) * region)`` with a skew favouring low indices,
        which gives every region internal temporal locality.  Each access
        draws ``random()`` (shared?), ``random()`` (line), ``randrange(8)``
        (word) and ``random()`` (store?) from one generator.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = random.Random(self.seed)
        for start in range(0, count, bulk_random.CHUNK):
            size = min(bulk_random.CHUNK, count - start)
            heads, words, tails = bulk_random.records(rng, size, 2, 8, 1)
            thread = np.arange(start, start + size) % self.num_threads
            shared = heads[:, 0] < self.shared_access_fraction
            # Skewed index: power the uniform to concentrate on the hot
            # front of the region (temporal locality), in python floats
            # as numpy's pow may round differently.
            offsets = np.empty(size, dtype=np.int64)
            for mask, skew, region in (
                    (shared, self.shared_skew, self.shared_lines),
                    (~shared, self.private_skew,
                     self.private_lines_per_thread)):
                offsets[mask] = [int(u ** skew * region)
                                 for u in heads[mask, 1].tolist()]
            base = np.where(shared, 0,
                            (thread + 1) * _PRIVATE_REGION_STRIDE)
            line = (base + offsets).astype(np.uint64)
            address = line * np.uint64(self.line_bytes) \
                + np.uint64(8) * words.astype(np.uint64)
            yield TraceColumns(address, tails[:, 0] < self.write_fraction,
                               thread)

    def columns(self, count: int) -> TraceColumns:
        """The first ``count`` accesses as columns."""
        return TraceColumns.concat(list(self._chunks(count)))

    def accesses(self, count: int) -> Iterator[MemoryAccess]:
        """Yield ``count`` accesses: :meth:`columns` one at a time."""
        for chunk in self._chunks(count):
            yield from chunk

    def __iter__(self) -> Iterator[MemoryAccess]:
        while True:
            yield from self.accesses(bulk_random.CHUNK)

    @property
    def total_footprint_lines(self) -> int:
        """Distinct lines across shared + all private regions."""
        return (
            self.shared_lines
            + self.num_threads * self.private_lines_per_thread
        )

    @property
    def static_shared_fraction(self) -> float:
        """Shared lines as a fraction of the total footprint.

        This *static* fraction falls as ``1 / num_threads`` grows the
        private footprint — the structural driver behind Figure 14.
        """
        return self.shared_lines / self.total_footprint_lines
