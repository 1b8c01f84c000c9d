"""A write-back, write-allocate set-associative cache simulator.

This is the workhorse behind the paper's measured inputs: run a synthetic
address stream through it at several capacities and the resulting miss
curve is what Figure 1 plots; its write-back counters give ``r_wb``; its
eviction-time word bitmaps give the unused-data fractions.

The simulator is deliberately *functional*, not timed: the analytical
model consumes event counts (misses, write-backs, bytes), not latencies,
exactly as the paper's methodology does (Section 3's "constant amount of
computation work" framing).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..workloads.stack_distance import stack_distances
from .block import AccessResult, CacheLine
from .replacement import LRUPolicy, ReplacementPolicy
from .stats import CacheStats

__all__ = ["SetAssociativeCache", "lru_misses"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _set_count(size_bytes: int, line_bytes: int, associativity: int) -> int:
    """Sets of a cache geometry; raises :class:`ValueError` unless the
    geometry is ``line_bytes * associativity * sets`` with power-of-two
    line size and set count."""
    if size_bytes <= 0:
        raise ValueError(f"size_bytes must be positive, got {size_bytes}")
    if not _is_power_of_two(line_bytes):
        raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
    if associativity <= 0:
        raise ValueError(
            f"associativity must be positive, got {associativity}"
        )
    lines = size_bytes // line_bytes
    if lines == 0 or lines * line_bytes != size_bytes:
        raise ValueError(
            f"size_bytes={size_bytes} is not a whole number of "
            f"{line_bytes}-byte lines"
        )
    if lines < associativity:
        raise ValueError(
            f"{lines} lines cannot form even one {associativity}-way set"
        )
    num_sets = lines // associativity
    if not _is_power_of_two(num_sets):
        raise ValueError(
            f"derived set count {num_sets} is not a power of two; adjust "
            "size or associativity"
        )
    if num_sets * associativity != lines:
        raise ValueError(
            f"{lines} lines do not divide evenly into {num_sets} sets"
        )
    return num_sets


def lru_misses(addresses: np.ndarray, size_bytes: int,
               line_bytes: int = 64, associativity: int = 8) -> np.ndarray:
    """Miss flags of a whole trace replayed into an empty LRU cache.

    Equals replaying ``addresses`` (uint64) through
    ``SetAssociativeCache(size_bytes, line_bytes, associativity)`` one
    :meth:`~SetAssociativeCache.access` at a time, computed offline: a
    set holds its ``associativity`` most recently used lines, so an
    access hits exactly when its stack distance *within its set* is at
    most the associativity.  A stable sort by set keeps each set's
    accesses in order, and :func:`stack_distances` on that sequence
    gives those per-set distances.
    """
    num_sets = _set_count(size_bytes, line_bytes, associativity)
    lines = np.asarray(addresses, dtype=np.uint64) \
        >> np.uint64(line_bytes.bit_length() - 1)
    sets = (lines & np.uint64(num_sets - 1)).astype(
        np.min_scalar_type(num_sets - 1))
    order = np.argsort(sets, kind="stable").astype(np.int32)
    lines = lines[order]
    del sets
    distances = stack_distances(lines)
    del lines
    misses = np.empty(len(distances), dtype=bool)
    misses[order] = (distances == 0) | (distances > associativity)
    return misses


class SetAssociativeCache:
    """A single-level set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.  Must be ``line_bytes * associativity * num_sets``
        with a power-of-two number of sets.
    line_bytes:
        Cache-line size (the paper's base is 64 bytes).
    associativity:
        Ways per set.  ``size_bytes // (line_bytes * associativity)`` sets
        are derived.  Use ``fully_associative`` for a single-set cache.
    policy:
        Replacement policy object (defaults to true LRU).
    word_bytes:
        Word granularity for usage tracking (8 bytes in the paper).

    Examples
    --------
    >>> cache = SetAssociativeCache(size_bytes=1024, line_bytes=64,
    ...                             associativity=2)
    >>> cache.access(0).hit          # cold miss
    False
    >>> cache.access(0).hit          # now resident
    True
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
        policy: Optional[ReplacementPolicy] = None,
        word_bytes: int = 8,
    ) -> None:
        if not _is_power_of_two(word_bytes) or word_bytes > line_bytes:
            raise ValueError(
                f"word_bytes must be a power of two <= line_bytes, got {word_bytes}"
            )
        num_sets = _set_count(size_bytes, line_bytes, associativity)

        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.word_bytes = word_bytes
        self.words_per_line = line_bytes // word_bytes
        self.num_sets = num_sets
        self._set_shift = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._set_bits = num_sets.bit_length() - 1
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()

        self._ways: List[List[Optional[CacheLine]]] = [
            [None] * associativity for _ in range(num_sets)
        ]
        self._tag_maps: List[dict] = [dict() for _ in range(num_sets)]
        self._policy_state = [
            self.policy.new_set_state(associativity) for _ in range(num_sets)
        ]
        self.stats = CacheStats(words_per_line=self.words_per_line)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _locate(self, address: int):
        line_addr = address >> self._set_shift
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        return set_index, tag

    def _word_index(self, address: int) -> int:
        return (address % self.line_bytes) // self.word_bytes

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(
        self, address: int, is_write: bool = False, core_id: int = 0
    ) -> AccessResult:
        """Simulate one access and update statistics."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        set_index, tag = self._locate(address)
        word = self._word_index(address)
        tag_map = self._tag_maps[set_index]
        state = self._policy_state[set_index]

        way = tag_map.get(tag)
        if way is not None:
            line = self._ways[set_index][way]
            line.touch(core_id, word, is_write)
            self.policy.on_hit(state, way)
            result = AccessResult(hit=True)
            self.stats.record(result)
            return result

        # Miss: find a way (prefer an invalid one), evict if needed.
        ways = self._ways[set_index]
        victim_way = None
        for idx, line in enumerate(ways):
            if line is None:
                victim_way = idx
                break
        evicted = None
        writeback = False
        bytes_wb = 0
        if victim_way is None:
            victim_way = self.policy.victim(state)
            evicted = ways[victim_way]
            del tag_map[evicted.tag]
            if evicted.dirty:
                writeback = True
                bytes_wb = self.line_bytes

        new_line = CacheLine(tag=tag, line_addr=address >> self._set_shift)
        new_line.touch(core_id, word, is_write)
        ways[victim_way] = new_line
        tag_map[tag] = victim_way
        self.policy.on_fill(state, victim_way)

        result = AccessResult(
            hit=False,
            writeback=writeback,
            evicted=evicted,
            bytes_fetched=self.line_bytes,
            bytes_written_back=bytes_wb,
        )
        self.stats.record(result)
        return result

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def reset_statistics(self) -> None:
        """Discard counters but keep cache contents (post-warmup reset)."""
        self.stats = CacheStats(words_per_line=self.words_per_line)

    def flush(self) -> int:
        """Evict every resident line, folding residency metadata into the
        stats (including write-back traffic for dirty lines).  Returns
        the number of dirty lines written back."""
        dirty = 0
        for set_index in range(self.num_sets):
            for way, line in enumerate(self._ways[set_index]):
                if line is None:
                    continue
                if line.dirty:
                    dirty += 1
                    self.stats.writebacks += 1
                    self.stats.bytes_written_back += self.line_bytes
                self.stats.record_eviction(line)
                self._ways[set_index][way] = None
            self._tag_maps[set_index].clear()
            self._policy_state[set_index] = self.policy.new_set_state(
                self.associativity
            )
        return dirty

    @property
    def resident_lines(self) -> int:
        """Number of currently valid lines."""
        return sum(len(m) for m in self._tag_maps)

    @classmethod
    def fully_associative(
        cls, size_bytes: int, line_bytes: int = 64, **kwargs
    ) -> "SetAssociativeCache":
        """A single-set cache (useful for stack-distance cross-checks)."""
        return cls(
            size_bytes=size_bytes,
            line_bytes=line_bytes,
            associativity=size_bytes // line_bytes,
            **kwargs,
        )
