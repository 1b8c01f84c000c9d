"""Unit tests for the memo table the shared tier builds on
(repro.core.memo)."""

import pytest

from repro.core import memo
from repro.core.area import ChipDesign
from repro.core.scaling import BandwidthWallModel
from repro.core.techniques import NEUTRAL_EFFECT

MODEL = BandwidthWallModel(ChipDesign(16, 8), alpha=0.5)


class TestMemoCache:
    def test_lookup_counts_miss_then_hit(self):
        cache = memo.MemoCache()
        key = memo.ModelKey(ChipDesign(16, 8), 0.5, 32.0, 1.0,
                            NEUTRAL_EFFECT)
        assert cache.lookup(key) is None
        solution = MODEL.supportable_cores(32.0)
        cache.store(key, solution)
        assert cache.lookup(key) is solution
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_fifo_eviction_respects_maxsize(self):
        cache = memo.MemoCache(maxsize=2)
        solution = MODEL.supportable_cores(32.0)
        keys = [
            memo.ModelKey(ChipDesign(16, 8), 0.5, ceas, 1.0, NEUTRAL_EFFECT)
            for ceas in (32.0, 64.0, 128.0)
        ]
        for key in keys:
            cache.store(key, solution)
        assert len(cache) == 2
        assert cache.lookup(keys[0]) is None  # oldest evicted
        assert cache.lookup(keys[2]) is solution

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValueError):
            memo.MemoCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = memo.MemoCache()
        key = memo.ModelKey(ChipDesign(16, 8), 0.5, 32.0, 1.0,
                            NEUTRAL_EFFECT)
        cache.lookup(key)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

    def test_stats_since_gives_deltas(self):
        before = memo.CacheStats(hits=2, misses=3, size=4)
        after = memo.CacheStats(hits=5, misses=4, size=6)
        delta = after.since(before)
        assert (delta.hits, delta.misses) == (3, 1)


class TestStatsSnapshot:
    """``MemoCache.stats()`` is an immutable point-in-time snapshot."""

    def test_snapshot_is_immutable(self):
        snapshot = memo.MemoCache().stats()
        with pytest.raises(AttributeError):
            snapshot.hits = 99

    def test_snapshot_under_concurrent_hammering_is_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = memo.MemoCache()
        key = memo.ModelKey(ChipDesign(16, 8), 0.5, 32.0, 1.0,
                            NEUTRAL_EFFECT)
        solution = MODEL.supportable_cores(32.0)
        cache.store(key, solution)

        def hammer(_):
            for _ in range(200):
                cache.lookup(key)
                cache.stats()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        snapshot = cache.stats()
        # Every lookup was a hit; no update was lost under contention.
        assert snapshot.hits == 8 * 200
        assert snapshot.misses == 0
        assert snapshot.lookups == snapshot.hits + snapshot.misses


class TestBulkOperations:
    """lookup_many/store_many: one lock, identical counter semantics."""

    def keys(self, count):
        return [memo.ModelKey(ChipDesign(16, 8), 0.5, 32.0 + i, 1.0,
                              NEUTRAL_EFFECT) for i in range(count)]

    def test_lookup_many_counts_like_per_key_lookups(self):
        cache = memo.MemoCache()
        keys = self.keys(5)
        solution = MODEL.supportable_cores(32.0)
        cache.store(keys[0], solution)
        cache.store(keys[3], solution)
        values = cache.lookup_many(keys)
        assert values == [solution, None, None, solution, None]
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 3

    def test_lookup_many_empty(self):
        cache = memo.MemoCache()
        assert cache.lookup_many([]) == []
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_store_many_round_trips(self):
        cache = memo.MemoCache()
        keys = self.keys(4)
        solutions = [MODEL.supportable_cores(32.0 + i) for i in range(4)]
        cache.store_many(zip(keys, solutions))
        for key, solution in zip(keys, solutions):
            assert cache.lookup(key) is solution

    def test_store_many_applies_fifo_eviction_per_entry(self):
        """Bulk stores evict exactly like an equivalent store loop."""
        bulk = memo.MemoCache(maxsize=3)
        loop = memo.MemoCache(maxsize=3)
        keys = self.keys(5)
        solution = MODEL.supportable_cores(32.0)
        items = [(key, solution) for key in keys]
        bulk.store_many(items)
        for key, value in items:
            loop.store(key, value)
        assert len(bulk) == len(loop) == 3
        for key in keys:
            assert (bulk.lookup(key) is None) == (loop.lookup(key) is None)
        # The survivors are the three newest keys, FIFO order.
        assert bulk.lookup(keys[0]) is None
        assert bulk.lookup(keys[1]) is None
        assert bulk.lookup(keys[4]) is solution

    def test_store_many_overwrite_does_not_evict(self):
        cache = memo.MemoCache(maxsize=2)
        keys = self.keys(2)
        solution = MODEL.supportable_cores(32.0)
        cache.store_many([(keys[0], solution), (keys[1], solution)])
        # Re-storing existing keys must not push anything out.
        cache.store_many([(keys[0], solution), (keys[1], solution)])
        assert len(cache) == 2
        assert cache.lookup(keys[0]) is solution
        assert cache.lookup(keys[1]) is solution

    def test_bulk_and_scalar_interleaving_is_consistent(self):
        cache = memo.MemoCache()
        keys = self.keys(6)
        solution = MODEL.supportable_cores(32.0)
        cache.store(keys[0], solution)
        cache.store_many([(keys[1], solution), (keys[2], solution)])
        assert cache.lookup_many(keys[:4]) == [solution] * 3 + [None]
        stats = cache.stats()
        assert stats.hits == 3 and stats.misses == 1 and stats.size == 3
