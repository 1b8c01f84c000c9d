"""Private caches with MSI coherence (footnote 1's measured counterpart).

The sharing model of Section 6.3 analyses two organisations: a shared
L2 (shared lines stored once) and private L2s, where "a shared block
occupies multiple cache lines as it is replicated at multiple private
caches. Thus, the cache capacity per core is unchanged."  The shared
case is measured by :class:`~repro.cache.shared_l2.SharedL2Cache`; this
module builds the private case so both halves of the model rest on
measurements.

:class:`PrivateCacheSystem` keeps one set-associative cache per core
under an MSI protocol with a full-map directory:

* a read miss is served cache-to-cache when any peer holds the line
  (no off-chip fetch — the "only one thread fetches shared data"
  effect survives private caches);
* a write obtains exclusivity, invalidating peer copies;
* a dirty (Modified) victim writes back off-chip.

The measured quantities the model cares about: off-chip fetches (the
traffic side), and the *replication factor* — average copies per
distinct resident line — which is exactly the capacity the private
organisation wastes relative to a shared cache.  :func:`replay_private`
measures both for a whole trace at once, over plain ints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..workloads.address_stream import TraceColumns

__all__ = ["MSIState", "PrivateCacheSystem", "CoherenceStats",
           "replay_private"]


class MSIState(enum.Enum):
    MODIFIED = "M"
    SHARED = "S"
    # Invalid lines are simply absent from the cache.


@dataclass
class CoherenceStats:
    """Event counters for the private-cache system."""

    accesses: int = 0
    hits: int = 0
    offchip_fetches: int = 0
    cache_to_cache_transfers: int = 0
    upgrades: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def offchip_fetch_rate(self) -> float:
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        return self.offchip_fetches / self.accesses


def _sets_per_core(num_cores: int, l2_bytes_per_core: int,
                   line_bytes: int, associativity: int) -> int:
    """Sets in each core's cache; :class:`ValueError` for a geometry
    that holds no line or does not split into power-of-two sets."""
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if line_bytes <= 0 or l2_bytes_per_core % line_bytes:
        raise ValueError("per-core size must be whole lines")
    lines = l2_bytes_per_core // line_bytes
    if associativity < 1 or lines < associativity or lines % associativity:
        raise ValueError("lines must divide evenly into sets")
    num_sets = lines // associativity
    if num_sets & (num_sets - 1):
        raise ValueError(f"set count {num_sets} not a power of two")
    return num_sets


class _PrivateCache:
    """One core's private set-associative cache with MSI line states."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity
        # per set: recency-ordered list of (line_addr, state); LRU first
        self._sets: List[List[Tuple[int, MSIState]]] = [
            [] for _ in range(self.num_sets)
        ]
        self._index: Dict[int, MSIState] = {}

    def _set_of(self, line_addr: int) -> List[Tuple[int, MSIState]]:
        return self._sets[line_addr & (self.num_sets - 1)]

    def lookup(self, line_addr: int) -> Optional[MSIState]:
        return self._index.get(line_addr)

    def touch(self, line_addr: int) -> None:
        bucket = self._set_of(line_addr)
        for position, (addr, state) in enumerate(bucket):
            if addr == line_addr:
                bucket.append(bucket.pop(position))
                return
        raise KeyError(f"line {line_addr} not resident")

    def set_state(self, line_addr: int, state: MSIState) -> None:
        if line_addr not in self._index:
            raise KeyError(f"line {line_addr} not resident")
        self._index[line_addr] = state
        bucket = self._set_of(line_addr)
        for position, (addr, _) in enumerate(bucket):
            if addr == line_addr:
                bucket[position] = (line_addr, state)
                return

    def insert(self, line_addr: int,
               state: MSIState) -> Optional[Tuple[int, MSIState]]:
        """Insert a line; returns the evicted (line, state) if any."""
        bucket = self._set_of(line_addr)
        evicted = None
        if len(bucket) >= self.associativity:
            evicted = bucket.pop(0)
            del self._index[evicted[0]]
        bucket.append((line_addr, state))
        self._index[line_addr] = state
        return evicted

    def invalidate(self, line_addr: int) -> MSIState:
        state = self._index.pop(line_addr)
        bucket = self._set_of(line_addr)
        for position, (addr, _) in enumerate(bucket):
            if addr == line_addr:
                del bucket[position]
                break
        return state

    @property
    def resident_lines(self) -> Set[int]:
        return set(self._index)


class PrivateCacheSystem:
    """``num_cores`` private caches kept coherent by a full-map directory."""

    def __init__(
        self,
        num_cores: int,
        l2_bytes_per_core: int,
        line_bytes: int = 64,
        associativity: int = 8,
    ) -> None:
        num_sets = _sets_per_core(num_cores, l2_bytes_per_core, line_bytes,
                                  associativity)
        self.num_cores = num_cores
        self.line_bytes = line_bytes
        self._caches = [
            _PrivateCache(num_sets, associativity) for _ in range(num_cores)
        ]
        #: line -> set of cores currently holding it.
        self._directory: Dict[int, Set[int]] = {}
        self.stats = CoherenceStats()

    def _line(self, address: int) -> int:
        return address // self.line_bytes

    def _holders(self, line_addr: int) -> Set[int]:
        return self._directory.get(line_addr, set())

    def _drop(self, line_addr: int, core: int) -> None:
        holders = self._directory.get(line_addr)
        if holders is not None:
            holders.discard(core)
            if not holders:
                del self._directory[line_addr]

    def _handle_eviction(self, core: int,
                         evicted: Optional[Tuple[int, MSIState]]) -> None:
        if evicted is None:
            return
        line_addr, state = evicted
        self._drop(line_addr, core)
        if state is MSIState.MODIFIED:
            self.stats.writebacks += 1

    def access(self, address: int, core_id: int,
               is_write: bool = False) -> bool:
        """One access; returns True on a local hit."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range for {self.num_cores} cores"
            )
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self.stats.accesses += 1
        line_addr = self._line(address)
        cache = self._caches[core_id]
        state = cache.lookup(line_addr)

        if state is not None:
            cache.touch(line_addr)
            if is_write and state is MSIState.SHARED:
                # Upgrade: invalidate every peer copy.
                self.stats.upgrades += 1
                for peer in list(self._holders(line_addr)):
                    if peer != core_id:
                        self._caches[peer].invalidate(line_addr)
                        self._drop(line_addr, peer)
                        self.stats.invalidations_sent += 1
                cache.set_state(line_addr, MSIState.MODIFIED)
            self.stats.hits += 1
            return True

        # Local miss: find the data.
        holders = self._holders(line_addr)
        new_state = MSIState.MODIFIED if is_write else MSIState.SHARED
        if holders:
            self.stats.cache_to_cache_transfers += 1
            if is_write:
                for peer in list(holders):
                    self._caches[peer].invalidate(line_addr)
                    self._drop(line_addr, peer)
                    self.stats.invalidations_sent += 1
            else:
                # A Modified peer downgrades to Shared (dirty sharing —
                # memory is updated lazily; we charge no off-chip fetch).
                for peer in list(holders):
                    if self._caches[peer].lookup(line_addr) is (
                        MSIState.MODIFIED
                    ):
                        self._caches[peer].set_state(
                            line_addr, MSIState.SHARED
                        )
        else:
            self.stats.offchip_fetches += 1

        evicted = cache.insert(line_addr, new_state)
        self._handle_eviction(core_id, evicted)
        self._directory.setdefault(line_addr, set()).add(core_id)
        return False

    # ------------------------------------------------------------------
    # Invariants and measurements
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """MSI safety: a Modified line has exactly one holder; the
        directory matches the caches exactly."""
        for line_addr, holders in self._directory.items():
            states = [
                self._caches[core].lookup(line_addr) for core in holders
            ]
            if any(state is None for state in states):
                raise AssertionError(
                    f"directory lists a non-holder for line {line_addr}"
                )
            if MSIState.MODIFIED in states and len(states) > 1:
                raise AssertionError(
                    f"line {line_addr} is Modified with {len(states)} holders"
                )
        for core, cache in enumerate(self._caches):
            for line_addr in cache.resident_lines:
                if core not in self._holders(line_addr):
                    raise AssertionError(
                        f"core {core} holds line {line_addr} unknown to "
                        "the directory"
                    )

    @property
    def replication_factor(self) -> float:
        """Average copies per distinct resident line (1.0 = no waste).

        This is footnote 1's capacity penalty, measured: a shared cache
        stores each of these lines once.
        """
        if not self._directory:
            raise ValueError("no lines resident")
        copies = sum(len(holders) for holders in self._directory.values())
        return copies / len(self._directory)

    @property
    def resident_copies(self) -> int:
        return sum(len(h) for h in self._directory.values())

    @property
    def distinct_resident_lines(self) -> int:
        return len(self._directory)


def replay_private(
    trace: TraceColumns,
    num_cores: int,
    l2_bytes_per_core: int,
    line_bytes: int = 64,
    associativity: int = 8,
) -> Tuple[CoherenceStats, float]:
    """``(stats, replication_factor)`` of a :class:`PrivateCacheSystem`
    after replaying ``trace`` into it, without its per-line objects.

    The same MSI protocol over plain ints: each core's set is an
    insertion-ordered dict ``line -> dirty``, least recent first (a hit
    re-inserts its line; the victim is the first key), and the directory
    maps ``line -> bitmask of holders``.  Raises :class:`ValueError`
    where the system would (a bad geometry, a core id out of range, no
    line resident to measure), and :class:`AssertionError` where
    :meth:`PrivateCacheSystem.check_invariants` would, checked at the end.
    """
    num_sets = _sets_per_core(num_cores, l2_bytes_per_core, line_bytes,
                              associativity)
    cores = trace.core_id
    bad = np.flatnonzero((cores < 0) | (cores >= num_cores))
    if len(bad):
        raise ValueError(f"core_id {cores[bad[0]]} out of range for "
                         f"{num_cores} cores")
    lines = trace.address // np.uint64(line_bytes)
    sets = lines & np.uint64(num_sets - 1)

    # caches[core * num_sets + set]: that set's lines, LRU first.
    caches: List[Dict[int, bool]] = [
        {} for _ in range(num_cores * num_sets)
    ]
    directory: Dict[int, int] = {}
    hits = offchip = transfers = upgrades = invalidations = writebacks = 0
    for line, set_index, core, write in zip(
            lines.tolist(), sets.tolist(), cores.tolist(),
            trace.is_write.tolist()):
        bit = 1 << core
        cache = caches[core * num_sets + set_index]
        dirty = cache.pop(line, None)
        if dirty is not None:
            hits += 1
            if write and not dirty:
                # Upgrade: invalidate every peer copy.
                upgrades += 1
                peers = directory[line] & ~bit
                while peers:
                    low = peers & -peers
                    peers ^= low
                    del caches[(low.bit_length() - 1) * num_sets
                               + set_index][line]
                    invalidations += 1
                directory[line] = bit
                dirty = True
            cache[line] = dirty
            continue

        holders = directory.get(line, 0)
        if holders:
            transfers += 1
            peers = holders
            while peers:
                low = peers & -peers
                peers ^= low
                peer = caches[(low.bit_length() - 1) * num_sets + set_index]
                if write:
                    del peer[line]
                    invalidations += 1
                elif peer[line]:
                    peer[line] = False  # Modified -> Shared, in place
            if write:
                holders = 0
        else:
            offchip += 1
        if len(cache) >= associativity:
            victim = next(iter(cache))
            if cache.pop(victim):
                writebacks += 1
            remaining = directory[victim] & ~bit
            if remaining:
                directory[victim] = remaining
            else:
                del directory[victim]
        cache[line] = write
        directory[line] = holders | bit

    copies = _checked_copies(caches, directory, num_sets)
    if not directory:
        raise ValueError("no lines resident")
    stats = CoherenceStats(
        accesses=len(trace), hits=hits, offchip_fetches=offchip,
        cache_to_cache_transfers=transfers, upgrades=upgrades,
        invalidations_sent=invalidations, writebacks=writebacks,
    )
    return stats, copies / len(directory)


def _checked_copies(caches: List[Dict[int, bool]],
                    directory: Dict[int, int], num_sets: int) -> int:
    """Resident copies of :func:`replay_private`'s state, after
    :meth:`PrivateCacheSystem.check_invariants` on it: a Modified line
    has exactly one holder, and the directory matches the caches."""
    copies = 0
    for line, holders in directory.items():
        states = []
        while holders:
            low = holders & -holders
            holders ^= low
            states.append(caches[(low.bit_length() - 1) * num_sets
                                 + (line & (num_sets - 1))].get(line))
        if None in states:
            raise AssertionError(
                f"directory lists a non-holder for line {line}")
        if True in states and len(states) > 1:
            raise AssertionError(
                f"line {line} is Modified with {len(states)} holders")
        copies += len(states)
    for slot, cache in enumerate(caches):
        core = slot // num_sets
        for line in cache:
            if not directory.get(line, 0) >> core & 1:
                raise AssertionError(
                    f"core {core} holds line {line} unknown to the "
                    "directory")
    return copies
