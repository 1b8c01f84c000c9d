"""LRU stack distances: sampling them (trace synthesis) and measuring
them (Mattson profiling).

Why stack distances?  For a fully-associative LRU cache of ``W`` lines,
an access hits iff its *stack distance* (the number of distinct lines
touched since the previous access to the same line, counting itself) is
at most ``W``.  A trace whose stack distances follow a truncated Pareto
distribution with tail index ``alpha`` therefore produces a miss-rate
curve ``m(W) ∝ W^-alpha`` — exactly the power law of cache misses the
paper builds on (Section 4.1).  This lets us synthesise workloads with a
*chosen* alpha and then re-measure that alpha independently with a cache
simulator, closing the loop the paper closed with real traces.

Three tools live here:

* :class:`ParetoStackDistanceSampler` + :class:`PowerLawTraceGenerator` —
  synthesis;
* :func:`stack_distances` — the exact offline LRU kernel: every
  access's stack distance at once, in O(n log n) numpy passes;
* :class:`StackDistanceProfiler` — that kernel behind an incremental
  interface, producing miss rates for *every* cache size from a single
  pass over a trace.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import bulk_random
from .address_stream import MemoryAccess, TraceColumns, as_columns

__all__ = [
    "ParetoStackDistanceSampler",
    "PowerLawTraceGenerator",
    "StackDistanceProfiler",
    "MissCurve",
    "stack_distances",
]

#: Accesses per kernel run when profiling a long stream: bounds the
#: kernel's temporaries (about 50 bytes per access) for file traces.
_KERNEL_BATCH = 1 << 20


class ParetoStackDistanceSampler:
    """Sample integer stack distances with a power-law tail.

    ``P(D > d) = (d / minimum) ** -alpha`` for ``d`` up to ``maximum``
    (the workload's total working-set size in lines); samples beyond the
    maximum are treated by callers as *new* lines (cold misses).

    Parameters
    ----------
    alpha:
        Tail index — becomes the workload's cache-sensitivity alpha.
    maximum:
        Truncation point, i.e. the working-set size in lines.
    minimum:
        Smallest distance (1 = immediate re-reference is possible).
    """

    def __init__(
        self,
        alpha: float,
        maximum: int,
        minimum: int = 1,
        seed: int = 0,
    ) -> None:
        if not math.isfinite(alpha) or alpha <= 0:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        if minimum < 1:
            raise ValueError(f"minimum must be >= 1, got {minimum}")
        if maximum <= minimum:
            raise ValueError(
                f"maximum ({maximum}) must exceed minimum ({minimum})"
            )
        self.alpha = alpha
        self.minimum = minimum
        self.maximum = maximum
        self._rng = random.Random(seed)

    def sample(self) -> int:
        """One Pareto-tailed integer distance (may exceed ``maximum``)."""
        return self.samples(1)[0]

    def samples(self, count: int) -> List[int]:
        """The next ``count`` distances, as ``count`` :meth:`sample`
        calls would return them."""
        minimum = self.minimum
        exponent = -1.0 / self.alpha
        # Inverse CDF of the continuous Pareto, floored to an integer.
        # Evaluated by python floats: numpy's pow may round differently.
        return [int(minimum * u ** exponent)
                for u in bulk_random.uniforms(self._rng, count).tolist()]

    def survival(self, distance: float) -> float:
        """``P(D > distance)`` of the untruncated distribution."""
        if distance < self.minimum:
            return 1.0
        return (distance / self.minimum) ** (-self.alpha)


class PowerLawTraceGenerator:
    """Synthesise an address stream whose miss curve obeys the power law.

    The generator keeps an explicit LRU stack of line addresses.  For
    each access it samples a stack distance ``d``:

    * ``d`` within the current stack — re-reference the ``d``-th most
      recent line (which the stack then moves to the top),
    * otherwise — touch a brand-new line (compulsory miss / working-set
      growth), bounded by ``working_set_lines``.

    Addresses are spread over a word within the line chosen by a
    configurable *spatial profile*: each line has ``words_per_line``
    words of which only the first ``touched_words`` are ever accessed,
    which manufactures the unused-data fraction the paper's Sections
    6.1-6.3 rely on (e.g. ``touched_words = 5`` of 8 ~= 40% unused).

    Parameters
    ----------
    alpha:
        Target power-law exponent.
    working_set_lines:
        Total distinct lines the workload ever touches.
    write_fraction:
        Fraction of *lines* that are written (all accesses to such a
        line are stores).  Making dirtiness a per-line property is what
        produces the paper's Section 4.2 observation that write-backs
        are an application-specific constant fraction of misses across
        cache sizes: a written line is dirty for any residency length,
        so ``r_wb`` equals the written-line fraction at every capacity.
    touched_words:
        How many distinct words per line the workload uses (1 to
        ``words_per_line``).
    prefill:
        Start with the whole working set already on the LRU stack
        (coldest-first), so reuse distances follow the exact Pareto law
        from the first access.  Without prefill the stack grows as the
        run proceeds and early out-of-stack samples become extra
        compulsory misses, flattening short runs' fitted alpha.  Default
        True; disable to study the warmup transient itself.
    """

    def __init__(
        self,
        alpha: float,
        working_set_lines: int = 1 << 16,
        line_bytes: int = 64,
        word_bytes: int = 8,
        write_fraction: float = 0.25,
        touched_words: Optional[int] = None,
        seed: int = 0,
        address_base: int = 0,
        prefill: bool = True,
    ) -> None:
        if working_set_lines < 2:
            raise ValueError(
                f"working_set_lines must be >= 2, got {working_set_lines}"
            )
        if not 0 <= write_fraction <= 1:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {write_fraction}"
            )
        self.words_per_line = line_bytes // word_bytes
        if touched_words is None:
            touched_words = self.words_per_line
        if not 1 <= touched_words <= self.words_per_line:
            raise ValueError(
                f"touched_words must be in [1, {self.words_per_line}], got "
                f"{touched_words}"
            )
        self.alpha = alpha
        self.working_set_lines = working_set_lines
        self.line_bytes = line_bytes
        self.word_bytes = word_bytes
        self.write_fraction = write_fraction
        self.touched_words = touched_words
        self.address_base = address_base
        self.prefill = prefill
        self._sampler = ParetoStackDistanceSampler(
            alpha=alpha, maximum=working_set_lines, seed=seed
        )
        self._rng = random.Random(seed ^ 0x5EED)

    def _written(self, lines: np.ndarray) -> np.ndarray:
        """Deterministic per-line write classification (Knuth hash)."""
        hashed = (lines.astype(np.uint64) * np.uint64(2654435761)) \
            & np.uint64(0xFFFFFFFF)
        return hashed.astype(np.float64) / 2**32 < self.write_fraction

    def _columns(self, lines: np.ndarray, words: np.ndarray
                 ) -> TraceColumns:
        address = (np.uint64(self.address_base)
                   + lines.astype(np.uint64) * np.uint64(self.line_bytes)
                   + words.astype(np.uint64) * np.uint64(self.word_bytes))
        return TraceColumns(address, self._written(lines),
                            np.zeros(len(lines), dtype=np.int32))

    def warmup_columns(self) -> TraceColumns:
        """One access per working-set line, deepest-first.

        Feeding this sweep to a cache or profiler (and then resetting its
        statistics) reproduces the prefilled stack state this generator
        assumes, so measurement starts *stationary*: every subsequent
        access's reuse distance is exactly the sampled Pareto distance,
        with no warmup transient and no compulsory misses.
        """
        lines = np.arange(self.working_set_lines - 1, -1, -1,
                          dtype=np.int64)
        return self._columns(lines, np.zeros(len(lines), dtype=np.int64))

    def warmup_accesses(self) -> Iterator[MemoryAccess]:
        """:meth:`warmup_columns` one access at a time."""
        return iter(self.warmup_columns())

    def _chunks(self, count: int) -> Iterator[TraceColumns]:
        """``count`` accesses as consecutive column chunks."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        working_set = self.working_set_lines
        if self.prefill:
            # Whole working set resident, coldest first (line 0 ends up
            # deepest so fresh lines still enter at sensible depths).
            stack: List[int] = list(range(working_set - 1, -1, -1))
            next_line = working_set
        else:
            stack = []  # most recent at the END (cheap append/pop)
            next_line = 0
        for start in range(0, count, bulk_random.CHUNK):
            size = min(bulk_random.CHUNK, count - start)
            lines = []
            append = lines.append
            for distance in self._sampler.samples(size):
                if distance <= len(stack):
                    line = stack[-distance]
                    if distance > 1:
                        del stack[-distance]
                        stack.append(line)
                elif next_line < working_set:
                    line = next_line
                    next_line += 1
                    stack.append(line)
                else:
                    # Working set exhausted: treat as a touch of the
                    # coldest line (the far tail of the reuse
                    # distribution).
                    line = stack[0]
                    del stack[0]
                    stack.append(line)
                append(line)
            words = bulk_random.below(self._rng, self.touched_words, size)
            yield self._columns(np.array(lines, dtype=np.int64), words)

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
        """Iterate indefinitely (callers bound with ``take``)."""
        while True:
            yield from self.accesses(bulk_random.CHUNK)


# ----------------------------------------------------------------------
# The offline LRU kernel
# ----------------------------------------------------------------------


def _previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of each element's previous equal element, or -1 (int32).

    One stable argsort groups equal keys with their positions ascending,
    so each element's predecessor in its group is its previous
    occurrence.
    """
    if len(keys) >= 1 << 31:
        raise ValueError("stack-distance kernel is limited to 2**31 accesses")
    order = np.argsort(keys, kind="stable").astype(np.int32)
    ordered = keys[order]
    repeat = ordered[1:] == ordered[:-1]
    previous = np.full(len(keys), -1, dtype=np.int32)
    previous[order[1:][repeat]] = order[:-1][repeat]
    return previous


def _moved(array: np.ndarray, destination: np.ndarray) -> np.ndarray:
    """``array`` scattered to ``destination`` (a permutation)."""
    moved = np.empty_like(array)
    moved[destination] = array
    return moved


def _partitioned(index: np.ndarray, zeros_before: np.ndarray,
                 ones: np.ndarray, total: np.ndarray,
                 dtype: type = np.int32) -> np.ndarray:
    """Where ``index`` lands when zeros stably precede ones: its
    ``zeros_before`` for a 0 bit, else ``total`` zeros plus its
    ``index - zeros_before`` ones.  Plain arithmetic on the 0/1
    ``ones``, which costs a fraction of a masked copy."""
    landed = np.subtract(index, zeros_before, dtype=dtype)
    landed += total
    landed -= zeros_before
    landed *= ones
    landed += zeros_before
    return landed


def _smaller_before(values: np.ndarray) -> np.ndarray:
    """``#{k < i : values[k] < values[i]}`` for every ``i`` (int32).

    A wavelet-matrix rank, answered for all ``i`` at once: one level per
    bit of the values, most significant first.  Each level stably moves
    elements whose bit is 0 before those whose bit is 1, and each query
    ``[0, i)`` rides with element ``i``, whose position is the query's
    right end at every level.  Where the query's bit is 1, the range's
    elements with bit 0 are smaller (same higher bits, lower here) and
    are counted; the range then narrows to the elements sharing the bit.
    """
    size = len(values)
    counts = np.zeros(size, dtype=np.int32)
    low = np.zeros(size, dtype=np.int32)  # each range's left end
    origin = np.arange(size, dtype=np.int32)
    position = np.arange(size, dtype=np.int32)
    zeros_before = np.zeros(size + 1, dtype=np.int32)
    for bit in range(int(values.max(initial=0)).bit_length() - 1, -1, -1):
        ones = (values >> bit) & 1
        np.cumsum(ones == 0, out=zeros_before[1:])
        total = zeros_before[-1]
        at_low = zeros_before[low]
        at_high = zeros_before[:-1]
        # Both the range's left end and the element move to the next
        # level's order.
        low = _partitioned(low, at_low, ones, total)
        # intp: numpy would convert an int32 index once per scatter.
        destination = _partitioned(position, at_high, ones, total,
                                   np.intp)
        # Where the bit is 1, count the range's zeros.
        range_zeros = np.subtract(at_high, at_low, out=at_low)
        range_zeros *= ones
        counts += range_zeros
        del ones, at_low, range_zeros
        values = _moved(values, destination)
        counts = _moved(counts, destination)
        low = _moved(low, destination)
        origin = _moved(origin, destination)
    result = np.empty(size, dtype=np.int32)
    result[origin] = counts
    return result


def _distances(previous: np.ndarray) -> np.ndarray:
    """Stack distances from previous occurrences (0 = first access).

    Access ``i`` with previous occurrence ``p`` has distance ``1 + #{k in
    (p, i) : p_k < p}`` (each line touched in between counts once, at
    its first touch there).  Every ``k <= p`` has ``p_k < k <= p``, so
    that is ``#{k < i : p_k < p} - p``: one dominance count over ``p``.
    A first touch (``p_k = -1``) before ``i`` always counts, so only the
    reuses go through :func:`_smaller_before`, and a reuse adds the
    first touches before it to its count among the reuses.
    """
    reused = previous >= 0
    counts = _smaller_before(previous[reused])
    counts += np.cumsum(~reused, dtype=np.int32)[reused]
    counts -= previous[reused]
    distances = np.zeros(len(previous), dtype=np.int32)
    distances[reused] = counts
    return distances


def stack_distances(keys: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in ``keys`` (int32).

    ``keys`` holds one line address (any integer key) per access; the
    result is 1 for an immediate re-reference, ``d`` when ``d - 1``
    distinct other lines were touched since the line's previous access,
    and 0 for a line's first access.  A fully-associative LRU cache of
    ``W`` lines hits exactly the accesses with ``1 <= distance <= W``;
    run on a set-sorted sequence, the distances are per set, which is
    set-associative LRU (:func:`repro.cache.set_assoc.lru_misses`).
    """
    return _distances(_previous_occurrences(np.asarray(keys)))


class StackDistanceProfiler:
    """Exact Mattson stack-distance profiling over the offline kernel.

    Feed line-granularity addresses with :meth:`record` or whole streams
    with :meth:`record_stream`.  The profiler keeps the LRU stack (the
    distinct lines seen, least recent first) and a histogram of stack
    distances.  Each batch runs :func:`stack_distances` on the stack
    followed by the batch: the stack replays every line's recency, so
    the batch's distances equal those of the whole history.  After the
    pass, :meth:`miss_curve` evaluates the miss rate at any set of cache
    sizes — simultaneously, from one histogram.
    """

    #: Stack distance reported for a line's first-ever access.
    COLD = math.inf

    def __init__(self, expected_accesses: int = 1 << 20) -> None:
        # ``expected_accesses`` is a sizing hint kept for callers; the
        # kernel allocates per batch and needs none.
        if expected_accesses < 1:
            raise ValueError(
                f"expected_accesses must be positive, got {expected_accesses}"
            )
        #: Distinct lines seen, least recently used first.
        self._stack = np.empty(0, dtype=np.uint64)
        #: Accesses per stack distance; index 0 counts cold misses.
        self._histogram = np.zeros(1, dtype=np.int64)
        self.accesses = 0

    def reset_statistics(self) -> None:
        """Clear the histogram and counters but keep the recency state.

        Use after feeding a warmup stream: subsequent measurements see a
        warm stack without the warmup's cold misses.
        """
        self._histogram = np.zeros(1, dtype=np.int64)
        self.accesses = 0

    def _record_lines(self, lines: np.ndarray) -> np.ndarray:
        """Record a batch of line addresses; returns their distances."""
        sequence = np.concatenate((self._stack, lines))
        previous = _previous_occurrences(sequence)
        distances = _distances(previous)[len(self._stack):]
        latest = np.ones(len(sequence), dtype=bool)
        latest[previous[previous >= 0]] = False
        self._stack = sequence[latest]
        counts = np.bincount(distances)
        if len(counts) > len(self._histogram):
            counts[:len(self._histogram)] += self._histogram
            self._histogram = counts.astype(np.int64)
        else:
            self._histogram[:len(counts)] += counts
        self.accesses += len(lines)
        return distances

    def record(self, line_address: int) -> float:
        """Record one access; returns its stack distance (1 = stack top,
        ``COLD`` for a first access).

        Each call is a kernel run over the whole current stack (tens to
        hundreds of microseconds); feed traces through
        :meth:`record_stream`.
        """
        try:
            line = np.array([line_address], dtype=np.uint64)
        except OverflowError:
            raise ValueError(
                f"line address {line_address:#x} does not fit in 64 bits"
            ) from None
        distance = int(self._record_lines(line)[0])
        return distance if distance else self.COLD

    def record_stream(
        self, stream: Iterable[MemoryAccess], line_bytes: int = 64
    ) -> None:
        """Record every access of a stream at line granularity.

        ``stream`` is :class:`TraceColumns` or any iterable of
        :class:`MemoryAccess`, which is collected into columns first
        (an address outside ``[0, 2**64)`` raises :class:`ValueError`).
        Either way the result is the same exact histogram.
        """
        columns = as_columns(stream)
        for start in range(0, len(columns), _KERNEL_BATCH):
            self._record_lines(
                columns[start:start + _KERNEL_BATCH].lines(line_bytes))

    @property
    def cold_misses(self) -> int:
        return int(self._histogram[0])

    @property
    def distinct_lines(self) -> int:
        """Distinct cache lines seen so far (the trace's footprint)."""
        return len(self._stack)

    def _hits_within(self) -> np.ndarray:
        """``[d]``: re-references with stack distance at most ``d``."""
        reuses = self._histogram.copy()
        reuses[0] = 0
        return np.cumsum(reuses)

    def _misses(self, hits_within: np.ndarray, cache_lines: int,
                exclude_cold: bool) -> int:
        """Integer miss count of a ``cache_lines``-line LRU cache."""
        reused = int(hits_within[-1])
        hits = int(hits_within[min(max(cache_lines, 0),
                                   len(hits_within) - 1)])
        return reused - hits + (0 if exclude_cold else self.cold_misses)

    def miss_rate(self, cache_lines: int, *,
                  exclude_cold: bool = False) -> float:
        """Miss rate of a fully-associative LRU cache of ``cache_lines``.

        ``exclude_cold`` drops compulsory misses from the numerator: over
        a production-length trace cold misses are negligible, but a short
        synthetic run overweights them, flattening the fitted power law.
        Capacity-only rates are the right input for alpha fitting.
        """
        if cache_lines < 1:
            raise ValueError(f"cache_lines must be >= 1, got {cache_lines}")
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        return self._misses(self._hits_within(), cache_lines,
                            exclude_cold) / self.accesses

    def miss_curve(self, cache_line_counts: Sequence[int], *,
                   exclude_cold: bool = False) -> "MissCurve":
        """Miss rates at each capacity, computed from one histogram.

        Numerators are exact integers divided in python floats, so a
        given trace always yields byte-identical rates.
        """
        sizes = sorted(set(cache_line_counts))
        if not sizes:
            raise ValueError("need at least one cache size")
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        hits_within = self._hits_within()
        return MissCurve(tuple(sizes), tuple(
            self._misses(hits_within, size, exclude_cold) / self.accesses
            for size in sizes
        ))


class MissCurve:
    """A measured miss-rate-vs-cache-size curve (Figure 1 material)."""

    def __init__(self, line_counts: Tuple[int, ...],
                 miss_rates: Tuple[float, ...]) -> None:
        if len(line_counts) != len(miss_rates):
            raise ValueError("sizes and rates must align")
        self.line_counts = line_counts
        self.miss_rates = miss_rates

    def __iter__(self):
        return iter(zip(self.line_counts, self.miss_rates))

    def __len__(self) -> int:
        return len(self.line_counts)

    def normalized(self) -> "MissCurve":
        """Normalise rates to the smallest cache size (Figure 1's y-axis)."""
        if not self.miss_rates or self.miss_rates[0] == 0:
            raise ValueError("cannot normalise: zero miss rate at base size")
        base = self.miss_rates[0]
        return MissCurve(
            self.line_counts, tuple(r / base for r in self.miss_rates)
        )

    def sizes_bytes(self, line_bytes: int = 64) -> Tuple[int, ...]:
        return tuple(count * line_bytes for count in self.line_counts)
