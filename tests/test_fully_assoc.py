"""Unit tests for the fully-associative LRU tag store."""

import pytest

from repro.cache.fully_assoc import FullyAssociativeLRU


class TestBasics:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FullyAssociativeLRU(0)

    def test_miss_then_hit(self):
        fa = FullyAssociativeLRU(4)
        hit, evicted = fa.access(1)
        assert not hit and evicted is None
        hit, evicted = fa.access(1)
        assert hit and evicted is None

    def test_eviction_at_capacity(self):
        fa = FullyAssociativeLRU(2)
        fa.access(1)
        fa.access(2)
        hit, evicted = fa.access(3)
        assert not hit
        assert evicted == 1  # LRU

    def test_lru_order_respects_hits(self):
        fa = FullyAssociativeLRU(2)
        fa.access(1)
        fa.access(2)
        fa.access(1)  # 1 becomes MRU
        _, evicted = fa.access(3)
        assert evicted == 2

    def test_probe_does_not_touch(self):
        fa = FullyAssociativeLRU(2)
        fa.access(1)
        fa.access(2)
        assert fa.probe(1)
        _, evicted = fa.access(3)
        assert evicted == 1  # probe did not refresh 1

    def test_touch_refreshes(self):
        fa = FullyAssociativeLRU(2)
        fa.access(1)
        fa.access(2)
        assert fa.touch(1)
        _, evicted = fa.access(3)
        assert evicted == 2

    def test_touch_missing_returns_false(self):
        fa = FullyAssociativeLRU(2)
        assert not fa.touch(42)

    def test_invalidate(self):
        fa = FullyAssociativeLRU(2)
        fa.access(1)
        assert fa.invalidate(1)
        assert not fa.probe(1)
        assert not fa.invalidate(1)

    def test_len_contains_flush(self):
        fa = FullyAssociativeLRU(4)
        fa.access(1)
        fa.access(2)
        assert len(fa) == 2
        assert 1 in fa
        fa.flush()
        assert len(fa) == 0

    def test_stats(self):
        fa = FullyAssociativeLRU(1)
        fa.access(1)
        fa.access(1)
        fa.access(2)
        assert fa.stats.accesses == 3
        assert fa.stats.hits == 1
        assert fa.stats.misses == 2
        assert fa.stats.evictions == 1


class TestEquivalenceWithSetAssoc:
    def test_matches_one_set_cache(self):
        """An FA-LRU must behave exactly like a 1-set LRU cache."""
        from repro.cache.geometry import CacheGeometry
        from repro.cache.set_assoc import SetAssociativeCache

        g = CacheGeometry(size=8 * 64, assoc=8, line_size=64)
        sa = SetAssociativeCache(g)
        fa = FullyAssociativeLRU(8)
        import random

        rnd = random.Random(99)
        for _ in range(2000):
            block = rnd.randrange(0, 24)
            sa_hit = sa.access(block * 64).hit
            fa_hit, _ = fa.access(block)
            assert sa_hit == fa_hit
