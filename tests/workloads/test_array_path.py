"""Differential tests of the array simulation path against per-access
references.

The references are the per-access implementations the array path
replaced, kept here as oracles: a Fenwick-tree Mattson profiler, the
per-access trace generators (one ``random.Random`` call per draw), and
the object-per-line cache simulators in :mod:`repro.cache`.  Every
comparison is exact.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.coherence import (
    PrivateCacheSystem,
    _checked_copies,
    replay_private,
)
from repro.cache.set_assoc import SetAssociativeCache, lru_misses
from repro.cache.shared_l2 import SharedL2Cache, replay_shared_fraction
from repro.experiments import ext_private_sharing
from repro.traces.synthesis import trace_source_streams
from repro.workloads import bulk_random
from repro.workloads.address_stream import MemoryAccess, TraceColumns
from repro.workloads.parsec_like import ParsecLikeWorkload
from repro.workloads.spec2006 import DiscreteWorkingSetGenerator
from repro.workloads.stack_distance import (
    PowerLawTraceGenerator,
    StackDistanceProfiler,
    _smaller_before,
    stack_distances,
)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


class FenwickProfiler:
    """The per-access Mattson profiler: a Fenwick tree of "latest access
    to some line" flags over access times, one range query per access."""

    def __init__(self, capacity=1 << 12):
        self.size = capacity
        self.tree = [0] * (capacity + 1)
        self.last = {}
        self.time = 0
        self.histogram = {}
        self.cold = 0
        self.accesses = 0

    def _add(self, index, delta):
        i = index + 1
        while i <= self.size:
            self.tree[i] += delta
            i += i & (-i)

    def _prefix(self, index):
        i, total = index + 1, 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total

    def reset_statistics(self):
        self.histogram, self.cold, self.accesses = {}, 0, 0

    def record(self, line):
        if self.time >= self.size:  # grow: rebuild at twice the size
            grown = FenwickProfiler(self.size * 2)
            for t in self.last.values():
                grown._add(t, 1)
            self.tree, self.size = grown.tree, grown.size
        self.accesses += 1
        previous = self.last.get(line)
        if previous is None:
            distance = math.inf
            self.cold += 1
        else:
            distance = (self._prefix(self.time - 1)
                        - self._prefix(previous) + 1)
            self._add(previous, -1)
            self.histogram[distance] = self.histogram.get(distance, 0) + 1
        self._add(self.time, 1)
        self.last[line] = self.time
        self.time += 1
        return distance

    def miss_rates(self, sizes, exclude_cold=False):
        cold = 0 if exclude_cold else self.cold
        return tuple(
            (cold + sum(c for d, c in self.histogram.items() if d > size))
            / self.accesses
            for size in sizes)


class ReferencePowerLaw:
    """``PowerLawTraceGenerator`` drawn one access at a time."""

    def __init__(self, alpha, working_set_lines, line_bytes=64,
                 word_bytes=8, write_fraction=0.25, touched_words=None,
                 seed=0, address_base=0, prefill=True):
        self.alpha = alpha
        self.working_set_lines = working_set_lines
        self.line_bytes, self.word_bytes = line_bytes, word_bytes
        self.write_fraction = write_fraction
        self.touched_words = touched_words or line_bytes // word_bytes
        self.address_base, self.prefill = address_base, prefill
        self.sampler = random.Random(seed)
        self.rng = random.Random(seed ^ 0x5EED)

    def written(self, line):
        return ((line * 2654435761) & 0xFFFFFFFF) / 2**32 \
            < self.write_fraction

    def warmup(self):
        for line in range(self.working_set_lines - 1, -1, -1):
            yield MemoryAccess(self.address_base + line * self.line_bytes,
                               self.written(line), 0)

    def accesses(self, count):
        if self.prefill:
            stack = list(range(self.working_set_lines - 1, -1, -1))
            next_line = self.working_set_lines
        else:
            stack, next_line = [], 0
        for _ in range(count):
            distance = int(1 * self.sampler.random() ** (-1.0 / self.alpha))
            if distance <= len(stack):
                line = stack[-distance]
                if distance > 1:
                    del stack[-distance]
                    stack.append(line)
            elif next_line < self.working_set_lines:
                line = next_line
                next_line += 1
                stack.append(line)
            else:
                line = stack[0]
                del stack[0]
                stack.append(line)
            word = self.rng.randrange(self.touched_words)
            yield MemoryAccess(
                self.address_base + line * self.line_bytes
                + word * self.word_bytes, self.written(line), 0)


def reference_discrete(generator_args, count, seed):
    """``DiscreteWorkingSetGenerator.accesses`` one access at a time."""
    lines, weights = generator_args
    total = sum(weights)
    weights = [w / total for w in weights]
    rng = random.Random(seed)
    cursors = [0] * len(lines)
    for _ in range(count):
        pick = rng.random()
        cumulative = 0.0
        index = len(lines) - 1
        for i, weight in enumerate(weights):
            cumulative += weight
            if pick < cumulative:
                index = i
                break
        line = cursors[index]
        cursors[index] = (line + 1) % lines[index]
        word = rng.randrange(8)
        yield MemoryAccess(line * 64 + word * 8, rng.random() < 0.15, 0)


def reference_parsec(workload, count):
    """``ParsecLikeWorkload.accesses`` one access at a time."""
    rng = random.Random(workload.seed)
    for i in range(count):
        thread = i % workload.num_threads
        if rng.random() < workload.shared_access_fraction:
            base, region, skew = 0, workload.shared_lines, \
                workload.shared_skew
        else:
            base = (thread + 1) * (1 << 22)
            region = workload.private_lines_per_thread
            skew = workload.private_skew
        line = base + int(rng.random() ** skew * region)
        address = line * workload.line_bytes + 8 * rng.randrange(8)
        yield MemoryAccess(address, rng.random() < workload.write_fraction,
                           thread)


def reference_sharing(cores, per_core, working_set_lines, line_bytes, seed):
    """The ``sharing`` trace source, interleaved one access at a time."""
    total = per_core * cores
    shared = ReferencePowerLaw(0.48, working_set_lines, line_bytes,
                               seed=seed * 1_000_003 + 1,
                               prefill=False).accesses(total)
    private = [ReferencePowerLaw(
        0.48, max(2, (working_set_lines * 5) // 8), line_bytes,
        seed=seed * 1_000_003 + 2 + thread,
        address_base=(thread + 1) * (1 << 22) * line_bytes,
        prefill=False).accesses(total) for thread in range(cores)]
    selector = random.Random(seed ^ 0xCA5E)
    for index in range(total):
        thread = index % cores
        access = next(shared) if selector.random() < 0.40 \
            else next(private[thread])
        yield MemoryAccess(access.address, access.is_write, thread)


# ----------------------------------------------------------------------
# Bulk draws
# ----------------------------------------------------------------------


class TestBulkRandom:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), count=st.integers(0, 3000))
    def test_uniforms_match_random(self, seed, count):
        bulk, single = random.Random(seed), random.Random(seed)
        assert bulk_random.uniforms(bulk, count).tolist() \
            == [single.random() for _ in range(count)]
        assert bulk.random() == single.random()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 300),
           count=st.integers(0, 3000))
    def test_below_matches_randrange(self, seed, n, count):
        bulk, single = random.Random(seed), random.Random(seed)
        assert bulk_random.below(bulk, n, count).tolist() \
            == [single.randrange(n) for _ in range(count)]
        assert bulk.random() == single.random()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), before=st.integers(0, 3),
           n=st.integers(1, 20), after=st.integers(0, 3),
           count=st.integers(0, 2000))
    def test_records_match_interleaved_calls(self, seed, before, n, after,
                                             count):
        bulk, single = random.Random(seed), random.Random(seed)
        heads, picks, tails = bulk_random.records(bulk, count, before, n,
                                                  after)
        for i in range(count):
            assert heads[i].tolist() == [single.random()
                                         for _ in range(before)]
            assert picks[i] == single.randrange(n)
            assert tails[i].tolist() == [single.random()
                                         for _ in range(after)]
        assert bulk.random() == single.random()


# ----------------------------------------------------------------------
# The kernel and the profiler
# ----------------------------------------------------------------------


def _profile_both(lines, split):
    """Feed ``lines[:split]`` as warmup (then reset) and the rest as the
    measured stream, to the array profiler and the oracle."""
    profiler, oracle = StackDistanceProfiler(), FenwickProfiler(8)
    warm, measured = lines[:split], lines[split:]
    profiler.record_stream(_as_trace(warm), line_bytes=1)
    for line in warm:
        oracle.record(line)
    profiler.reset_statistics()
    oracle.reset_statistics()
    for line in measured:
        oracle.record(line)
    profiler.record_stream(_as_trace(measured), line_bytes=1)
    return profiler, oracle


def _as_trace(lines):
    """One-byte lines: each address is its own line."""
    return TraceColumns(np.asarray(lines, dtype=np.uint64),
                        np.zeros(len(lines), bool),
                        np.zeros(len(lines), np.int32))


lines_small = st.lists(st.integers(0, 8), max_size=400)
lines_large = st.lists(st.integers(0, 2**64 - 1), max_size=200).map(
    lambda ls: ls + ls[::-1] + ls)


class TestKernelOracle:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.one_of(
        lines_small, lines_large,
        st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=300)))
    def test_distances_match_fenwick(self, lines):
        expected = FenwickProfiler(4)
        want = [expected.record(line) for line in lines]
        got = stack_distances(np.asarray(lines, dtype=np.uint64)).tolist()
        assert [math.inf if d == 0 else d for d in got] == want

    @settings(max_examples=60, deadline=None)
    @given(lines=st.one_of(lines_small, lines_large), data=st.data())
    def test_profiler_matches_fenwick_with_warmup(self, lines, data):
        split = data.draw(st.integers(0, len(lines)))
        profiler, oracle = _profile_both(lines, split)
        assert profiler.accesses == oracle.accesses
        assert profiler.cold_misses == oracle.cold
        assert profiler.distinct_lines == len(oracle.last)
        histogram = {d: int(c) for d, c
                     in enumerate(profiler._histogram) if d and c}
        assert histogram == oracle.histogram
        if oracle.accesses:
            sizes = [1, 2, 3, 5, 8, 64, 2**40]
            for exclude in (False, True):
                assert profiler.miss_curve(sizes, exclude_cold=exclude) \
                    .miss_rates == oracle.miss_rates(sizes, exclude)

    @settings(max_examples=30, deadline=None)
    @given(lines=lines_small, data=st.data())
    def test_single_records_match_fenwick(self, lines, data):
        split = data.draw(st.integers(0, len(lines)))
        profiler, oracle = StackDistanceProfiler(), FenwickProfiler(8)
        for index, line in enumerate(lines):
            if index == split:
                profiler.reset_statistics()
                oracle.reset_statistics()
            assert profiler.record(line) == oracle.record(line)
        assert profiler.cold_misses == oracle.cold

    def test_profiler_matches_fenwick_on_generated_trace(self):
        """A warm power-law trace, long enough for every kernel level."""
        generator = PowerLawTraceGenerator(alpha=0.48,
                                           working_set_lines=2048, seed=7)
        warm = generator.warmup_columns().lines(64).tolist()
        measured = generator.columns(25_000).lines(64).tolist()
        profiler, oracle = _profile_both(warm + measured, len(warm))
        sizes = [2**k for k in range(3, 12)]
        assert profiler.miss_curve(sizes).miss_rates \
            == oracle.miss_rates(sizes)
        assert (profiler.accesses, profiler.cold_misses,
                profiler.distinct_lines) \
            == (oracle.accesses, oracle.cold, len(oracle.last))

    def test_record_stream_batches_long_streams(self, monkeypatch):
        """Kernel runs split at any batch size give the same result."""
        from repro.workloads import stack_distance

        rng = random.Random(3)
        lines = [rng.randrange(500) for _ in range(3000)]
        whole, _ = _profile_both(lines, 0)
        monkeypatch.setattr(stack_distance, "_KERNEL_BATCH", 7)
        batched, _ = _profile_both(lines, 0)
        assert batched.miss_curve([4, 50, 400]).miss_rates \
            == whole.miss_curve([4, 50, 400]).miss_rates
        assert batched.distinct_lines == whole.distinct_lines

    @settings(max_examples=60, deadline=None)
    @given(lines=lines_small.filter(bool))
    def test_batch_without_first_touches(self, lines):
        """Every access of the measured batch is a reuse: the kernel's
        first touches are exactly the replayed stack."""
        seen = list(dict.fromkeys(lines))
        profiler, oracle = _profile_both(seen + lines, len(seen))
        assert profiler.cold_misses == oracle.cold == 0
        histogram = {d: int(c) for d, c
                     in enumerate(profiler._histogram) if d and c}
        assert histogram == oracle.histogram

    @settings(max_examples=60, deadline=None)
    @given(values=st.one_of(
        st.lists(st.integers(0, 7), max_size=300),
        st.lists(st.integers(0, 2**31 - 1), max_size=100),
        st.permutations(range(200))))
    def test_smaller_before_counts(self, values):
        """The rank kernel alone, on any non-negative values."""
        expected = [sum(v < value for v in values[:i])
                    for i, value in enumerate(values)]
        got = _smaller_before(np.asarray(values, dtype=np.int32))
        assert got.tolist() == expected

    def test_wide_addresses_are_refused(self):
        profiler = StackDistanceProfiler()
        with pytest.raises(ValueError, match="64 bits"):
            profiler.record(1 << 64)
        with pytest.raises(ValueError, match="64 bits"):
            profiler.record(-1)
        assert profiler.accesses == 0


# ----------------------------------------------------------------------
# Generators: columns vs per-access references
# ----------------------------------------------------------------------


class TestGeneratorColumns:
    @pytest.mark.parametrize("prefill", [True, False])
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.48, working_set_lines=512, seed=3),
        # A tiny working set runs out of fresh lines quickly, so the
        # exhausted branch (coldest line) is taken often.
        dict(alpha=0.2, working_set_lines=8, seed=5, touched_words=5,
             address_base=3 << 40, write_fraction=0.6),
    ])
    def test_powerlaw(self, prefill, kwargs):
        generator = PowerLawTraceGenerator(prefill=prefill, **kwargs)
        reference = ReferencePowerLaw(prefill=prefill, **kwargs)
        # Two calls: the generators' draws continue across calls.
        for count in (20_000, 1_234):
            assert list(generator.columns(count)) \
                == list(reference.accesses(count))
        assert list(generator.warmup_accesses()) == list(reference.warmup())
        assert list(generator.accesses(50)) == list(reference.accesses(50))

    @pytest.mark.parametrize("args,seed", [
        (((64, 1024, 16384), (0.70, 0.20, 0.10)), 11),
        (((3, 5), (0.1, 0.3)), 2),
    ])
    def test_discrete(self, args, seed):
        lines, weights = args
        generator = DiscreteWorkingSetGenerator(lines, weights, seed=seed)
        reference = reference_discrete(args, 40_000, seed)
        assert list(generator.columns(30_000)) \
            == [next(reference) for _ in range(30_000)]
        assert list(generator.accesses(10_000)) == list(reference)

    @pytest.mark.parametrize("threads", [1, 3, 16])
    def test_parsec(self, threads):
        workload = ParsecLikeWorkload(num_threads=threads, seed=threads)
        assert list(workload.columns(25_000)) \
            == list(reference_parsec(workload, 25_000))

    @pytest.mark.parametrize("cores,seed", [(1, 0), (4, 3), (16, 1)])
    def test_sharing_mix_interleaves_like_per_access(self, cores, seed):
        streams = trace_source_streams("sharing", cores, accesses=1500,
                                       working_set_lines=300,
                                       line_bytes=64, seed=seed)
        assert list(streams.stream) \
            == list(reference_sharing(cores, 1500, 300, 64, seed))

    @pytest.mark.parametrize("source,unit", [("sequential", 1),
                                             ("strided", 7)])
    def test_scans(self, source, unit):
        streams = trace_source_streams(source, unit, accesses=1000,
                                       working_set_lines=96, line_bytes=32)
        assert [a.address for a in streams.stream] \
            == [((i * unit) % 96) * 32 for i in range(1000)]


# ----------------------------------------------------------------------
# Set-associative replays
# ----------------------------------------------------------------------


def _replay(addresses, cores, cache):
    for address, core in zip(addresses, cores):
        cache.access(address, core_id=core)


geometries = st.sampled_from([
    # (size_bytes, line_bytes, associativity): one set, few ways, and
    # many sets the short traces below never fill.
    (256, 64, 4), (1024, 64, 2), (4096, 32, 4), (65536, 64, 8),
    (2048, 64, 1),
])
traces = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 63),
                            st.integers(0, 3)), max_size=500)


class TestSetAssociative:
    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, trace=traces)
    def test_lru_misses_match_simulator(self, geometry, trace):
        size, line_bytes, ways = geometry
        addresses = [line * 64 + offset for line, offset, _ in trace]
        cache = SetAssociativeCache(size, line_bytes, ways)
        expected = [not cache.access(a).hit for a in addresses]
        got = lru_misses(np.asarray(addresses, dtype=np.uint64), size,
                         line_bytes, ways)
        assert got.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, trace=traces.filter(bool))
    def test_shared_fraction_matches_shared_l2(self, geometry, trace):
        size, line_bytes, ways = geometry
        addresses = [line * 64 + offset for line, offset, _ in trace]
        cores = [core for _, _, core in trace]
        cache = SharedL2Cache(size, num_cores=4, line_bytes=line_bytes,
                              associativity=ways)
        _replay(addresses, cores, cache)
        columns = TraceColumns(np.asarray(addresses, dtype=np.uint64),
                               np.zeros(len(trace), bool),
                               np.asarray(cores, dtype=np.int32))
        assert replay_shared_fraction(columns, size, 4, line_bytes, ways) \
            == cache.shared_line_fraction()

    def test_fig14_unit_matches_shared_l2(self):
        workload = ParsecLikeWorkload(num_threads=4, seed=0)
        cache = SharedL2Cache(256 * 1024, num_cores=4)
        for access in workload.accesses(40_000):
            cache.access(access.address, core_id=access.core_id,
                         is_write=access.is_write)
        assert replay_shared_fraction(workload.columns(40_000), 256 * 1024,
                                      4) == cache.shared_line_fraction()

    def test_miss_counts_match_simulator_across_line_sizes(self):
        trace = PowerLawTraceGenerator(alpha=0.5, working_set_lines=1 << 11,
                                       touched_words=2, seed=17
                                       ).columns(20_000)
        for line_bytes in (16, 64, 256):
            cache = SetAssociativeCache(16 * 1024, line_bytes, 8)
            for access in trace:
                cache.access(access.address)
            assert int(lru_misses(trace.address, 16 * 1024, line_bytes, 8)
                       .sum()) == cache.stats.misses

    def test_core_ids_are_checked(self):
        columns = TraceColumns(np.zeros(3, np.uint64), np.zeros(3, bool),
                               np.array([0, 1, 4], np.int32))
        with pytest.raises(ValueError, match="core ids"):
            replay_shared_fraction(columns, 4096, 4)


# ----------------------------------------------------------------------
# MSI private caches
# ----------------------------------------------------------------------


def _outcome(call):
    """``call()``, or the type and message of the error it raised."""
    try:
        return call()
    except (ValueError, AssertionError) as error:
        return type(error), str(error)


def _private_per_access(trace, cores, per_core_bytes, ways):
    system = PrivateCacheSystem(cores, per_core_bytes, 64, ways)
    for access in trace:
        system.access(access.address, access.core_id, access.is_write)
    system.check_invariants()
    return system.stats, system.replication_factor


@st.composite
def private_cases(draw):
    """A geometry and a trace over twice the lines one core holds, so
    evictions, upgrades, invalidations and Modified -> Shared
    downgrades all occur; in one trace in four, one access has a core
    id out of range."""
    cores = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 8))
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    write_fraction = draw(st.floats(0, 1))
    accesses = draw(st.lists(st.tuples(
        st.integers(0, 2 * ways * sets), st.integers(0, 63),
        st.integers(0, cores - 1), st.floats(0, 1, exclude_max=True)),
        max_size=400))
    core_ids = [core for _, _, core, _ in accesses]
    if accesses and draw(st.integers(0, 3)) == 0:
        core_ids[draw(st.integers(0, len(accesses) - 1))] = \
            draw(st.sampled_from([-1, cores]))
    trace = TraceColumns(
        np.asarray([line * 64 + offset for line, offset, _, _ in accesses],
                   dtype=np.uint64),
        np.asarray([u < write_fraction for _, _, _, u in accesses], bool),
        np.asarray(core_ids, dtype=np.int32))
    return trace, cores, ways * sets * 64, ways


class TestPrivateReplay:
    @settings(max_examples=300, deadline=None)
    @given(case=private_cases())
    def test_matches_private_cache_system(self, case):
        trace, cores, per_core_bytes, ways = case
        assert _outcome(lambda: replay_private(trace, cores, per_core_bytes,
                                               64, ways)) \
            == _outcome(lambda: _private_per_access(*case))

    @pytest.mark.parametrize("geometry", [
        (0, 1024, 64, 2), (2, 100, 64, 2), (2, 192, 64, 2),
        (2, 1536, 64, 8), (2, 1024, 0, 2),
    ])
    def test_bad_geometries_raise_like_the_system(self, geometry):
        trace = TraceColumns(np.zeros(1, np.uint64), np.zeros(1, bool),
                             np.zeros(1, np.int32))
        with pytest.raises(ValueError) as expected:
            PrivateCacheSystem(*geometry)
        with pytest.raises(ValueError) as got:
            replay_private(trace, *geometry)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("geometry", [(2, 1024, 64, 0),
                                          (2, 0, 64, 2)])
    def test_empty_geometries_are_refused(self, geometry):
        trace = TraceColumns(np.zeros(1, np.uint64), np.zeros(1, bool),
                             np.zeros(1, np.int32))
        with pytest.raises(ValueError):
            replay_private(trace, *geometry)


    @pytest.mark.parametrize("caches,directory,message", [
        # Two cores, two sets: caches[core * 2 + set] maps line -> dirty.
        ([{0: False}, {}, {}, {}], {0: 0b11},
         "directory lists a non-holder for line 0"),
        ([{}, {1: True}, {}, {1: False}], {1: 0b11},
         "line 1 is Modified with 2 holders"),
        ([{}, {}, {2: False}, {}], {},
         "core 1 holds line 2 unknown to the directory"),
    ])
    def test_invariant_check_catches_broken_states(self, caches, directory,
                                                   message):
        with pytest.raises(AssertionError, match=message):
            _checked_copies(caches, directory, 2)

    def test_invariant_check_counts_copies(self):
        caches = [{0: False}, {1: True}, {0: False, 2: True}, {}]
        assert _checked_copies(caches, {0: 0b11, 1: 0b01, 2: 0b10}, 2) == 4


def test_ext_sharing_checks_every_replay(monkeypatch):
    from repro.cache import coherence

    checked = []

    def counting(*args):
        checked.append(True)
        return _checked_copies(*args)

    monkeypatch.setattr(coherence, "_checked_copies", counting)
    ext_private_sharing.run(core_counts=(2, 4), accesses_per_core=500)
    assert len(checked) == 2


@pytest.mark.parametrize("cores", [4, 8])
def test_ext_sharing_matches_per_access_replays(cores):
    """ext-sharing's offline replays equal feeding its own traces to
    ``SharedL2Cache`` and ``PrivateCacheSystem`` one access at a time."""
    total_bytes, per_core = 2 * 1024 * 1024, 15_000
    trace = ParsecLikeWorkload(num_threads=cores, seed=0) \
        .columns(per_core * cores)
    shared = SharedL2Cache(total_bytes, num_cores=cores)
    for access in trace:
        shared.access(access.address, core_id=access.core_id,
                      is_write=access.is_write)
    private, replication = _private_per_access(trace, cores,
                                               total_bytes // cores, 8)
    result = ext_private_sharing.run(core_counts=(cores,),
                                     total_cache_bytes=total_bytes,
                                     accesses_per_core=per_core)
    assert result.by_cores[cores] == (
        shared.stats.misses / shared.stats.accesses,
        private.offchip_fetch_rate, replication)
