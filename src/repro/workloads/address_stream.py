"""Address-stream primitives shared by all workload generators.

A workload is an iterable of :class:`MemoryAccess` records.  Generators
in this package are deterministic given their seed, so every measurement
in the test suite and benchmarks is reproducible.  They also produce the
same accesses as :class:`TraceColumns` — one numpy array per field —
which is what the simulators consume in bulk.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Protocol, Sequence

import numpy as np

__all__ = [
    "MemoryAccess",
    "AddressStream",
    "TraceColumns",
    "as_columns",
    "take",
    "interleave_round_robin",
]


class MemoryAccess(NamedTuple):
    """One memory reference.

    Attributes
    ----------
    address:
        Byte address.
    is_write:
        Store vs load.
    core_id:
        Issuing core (0 for single-threaded streams).
    """

    address: int
    is_write: bool = False
    core_id: int = 0


class TraceColumns:
    """A trace stored column-wise: one array per :class:`MemoryAccess`
    field, all of one length.

    ``address`` is uint64 (so every address is below ``2**64``),
    ``is_write`` bool and ``core_id`` int32.  Iterating yields the
    accesses as :class:`MemoryAccess` records, so columns drop in
    wherever a stream is expected.
    """

    __slots__ = ("address", "is_write", "core_id")

    def __init__(self, address: np.ndarray, is_write: np.ndarray,
                 core_id: np.ndarray) -> None:
        if not len(address) == len(is_write) == len(core_id):
            raise ValueError("trace columns must have equal lengths")
        self.address = np.asarray(address, dtype=np.uint64)
        self.is_write = np.asarray(is_write, dtype=bool)
        self.core_id = np.asarray(core_id, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.address)

    def __getitem__(self, index: slice) -> "TraceColumns":
        """A contiguous run of accesses (views of these columns)."""
        return TraceColumns(self.address[index], self.is_write[index],
                            self.core_id[index])

    def __iter__(self) -> Iterator[MemoryAccess]:
        for address, is_write, core_id in zip(
                self.address.tolist(), self.is_write.tolist(),
                self.core_id.tolist()):
            yield MemoryAccess(address, is_write, core_id)

    def lines(self, line_bytes: int) -> np.ndarray:
        """Line address of every access (``line_bytes`` a power of two)."""
        return self.address >> np.uint64(line_bytes.bit_length() - 1)

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """The accesses of ``parts`` one after another."""
        if not parts:
            return cls(np.empty(0, np.uint64), np.empty(0, bool),
                       np.empty(0, np.int32))
        if len(parts) == 1:
            return parts[0]
        return cls(np.concatenate([p.address for p in parts]),
                   np.concatenate([p.is_write for p in parts]),
                   np.concatenate([p.core_id for p in parts]))


def as_columns(stream: Iterable[MemoryAccess]) -> TraceColumns:
    """``stream`` as columns: itself when it already is, else collected.

    Raises :class:`ValueError` for an address outside ``[0, 2**64)``,
    which the uint64 column cannot hold.
    """
    if isinstance(stream, TraceColumns):
        return stream
    iterator = iter(stream)
    parts = []
    while True:
        records = list(islice(iterator, 1 << 14))
        if not records:
            return TraceColumns.concat(parts)
        try:
            address = np.fromiter((r.address for r in records),
                                  dtype=np.uint64, count=len(records))
        except OverflowError:
            bad = next(r.address for r in records
                       if not 0 <= r.address < 1 << 64)
            raise ValueError(
                f"address {bad:#x} does not fit in 64 bits"
            ) from None
        parts.append(TraceColumns(
            address,
            np.fromiter((r.is_write for r in records), dtype=bool,
                        count=len(records)),
            np.fromiter((r.core_id for r in records), dtype=np.int32,
                        count=len(records)),
        ))


class AddressStream(Protocol):
    """Anything that can be iterated into :class:`MemoryAccess` records."""

    def __iter__(self) -> Iterator[MemoryAccess]: ...


def take(stream: Iterable[MemoryAccess], count: int) -> List[MemoryAccess]:
    """Materialise the first ``count`` accesses of a stream.

    >>> from itertools import repeat
    >>> len(take(repeat(MemoryAccess(0)), 5))
    5
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out = []
    for access in stream:
        if len(out) >= count:
            break
        out.append(access)
    return out


def interleave_round_robin(
    streams: List[Iterable[MemoryAccess]],
) -> Iterator[MemoryAccess]:
    """Interleave per-thread streams one access at a time.

    Used to model independent threads time-sharing a memory system; each
    access keeps its originating stream's ``core_id``.  Stops when any
    stream is exhausted, keeping the per-core access counts balanced.
    """
    iterators = [iter(s) for s in streams]
    if not iterators:
        return
    while True:
        for iterator in iterators:
            try:
                yield next(iterator)
            except StopIteration:
                return
