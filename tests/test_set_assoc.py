"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.set_assoc import SetAssociativeCache


class TestBasicHitMiss:
    def test_first_access_misses_then_hits(self, tiny):
        c = SetAssociativeCache(tiny)
        assert not c.access(0x1000).hit
        assert c.access(0x1000).hit

    def test_same_line_different_word_hits(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        assert c.access(0x1038).hit

    def test_next_line_misses(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        assert not c.access(0x1040).hit

    def test_stats_count_hits_and_misses(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        c.access(0x1000)
        c.access(0x2000)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2

    def test_probe_does_not_mutate(self, tiny):
        c = SetAssociativeCache(tiny)
        assert not c.probe(0x1000)
        assert c.stats.accesses == 0
        c.access(0x1000)
        assert c.probe(0x1000)
        assert c.stats.accesses == 1


class TestConflictBehaviour:
    def test_direct_mapped_ping_pong(self, tiny):
        c = SetAssociativeCache(tiny)
        a, b = 0x1000, 0x1000 + tiny.size
        assert tiny.set_index(a) == tiny.set_index(b)
        c.access(a)
        out = c.access(b)
        assert not out.hit
        assert out.evicted is not None
        assert out.evicted.tag == tiny.tag(a)
        assert not c.access(a).hit  # a was evicted

    def test_two_way_holds_both(self, tiny2way):
        c = SetAssociativeCache(tiny2way)
        a, b = 0x1000, 0x1000 + tiny2way.size
        c.access(a)
        c.access(b)
        assert c.access(a).hit
        assert c.access(b).hit

    def test_lru_eviction_order_in_set(self, tiny2way):
        c = SetAssociativeCache(tiny2way)
        s = tiny2way.size
        a, b, d = 0x1000, 0x1000 + s, 0x1000 + 2 * s
        c.access(a)
        c.access(b)
        c.access(a)  # a is now MRU
        c.access(d)  # evicts b
        assert c.probe(a)
        assert not c.probe(b)
        assert c.probe(d)


class TestFillAndLookup:
    def test_lookup_does_not_allocate(self, tiny):
        c = SetAssociativeCache(tiny)
        out = c.lookup(0x1000)
        assert not out.hit
        assert not c.probe(0x1000)

    def test_fill_installs(self, tiny):
        c = SetAssociativeCache(tiny)
        c.fill(0x1000)
        assert c.probe(0x1000)

    def test_fill_resident_raises(self, tiny):
        c = SetAssociativeCache(tiny)
        c.fill(0x1000)
        with pytest.raises(ValueError, match="duplicate"):
            c.fill(0x1008)  # same line

    def test_fill_carries_conflict_bit(self, tiny):
        c = SetAssociativeCache(tiny)
        c.fill(0x1000, conflict_bit=True)
        assert c.peek_line(0x1000).conflict_bit

    def test_write_sets_dirty_and_counts_writeback(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000, write=True)
        assert c.peek_line(0x1000).dirty
        c.access(0x1000 + tiny.size)  # evicts dirty line
        assert c.stats.writebacks == 1

    def test_victim_preview_matches_actual_eviction(self, tiny2way):
        c = SetAssociativeCache(tiny2way)
        s = tiny2way.size
        c.access(0x1000)
        c.access(0x1000 + s)
        preview = c.victim_preview(0x1000 + 2 * s)
        evicted = c.fill(0x1000 + 2 * s).evicted
        assert preview is not None and evicted is not None
        assert preview.tag == evicted.tag

    def test_fill_returns_the_filled_way(self, tiny2way):
        c = SetAssociativeCache(tiny2way)
        s = tiny2way.size
        for addr in (0x1000, 0x1000 + s, 0x1000 + 2 * s):
            filled = c.fill(addr)
            assert filled.way == c.find_way(addr)
        # The third fill displaced the LRU line; the snapshot rides along.
        assert c.fill(0x1000 + 3 * s).evicted is not None

    def test_access_way_reports_the_filled_way(self, tiny2way):
        """Regression: access() must report the way fill() chose without
        re-scanning the set (the way has to match find_way's answer)."""
        c = SetAssociativeCache(tiny2way)
        s = tiny2way.size
        for addr in (0x2000, 0x2000 + s, 0x2000 + 2 * s, 0x2000 + 3 * s):
            out = c.access(addr)
            assert not out.hit
            assert out.way == c.find_way(addr)
            assert out.way is not None

    def test_victim_preview_none_when_set_has_room(self, tiny):
        c = SetAssociativeCache(tiny)
        assert c.victim_preview(0x1000) is None

    def test_invalidate_removes_without_evict_hook(self, tiny):
        hook_calls = []
        c = SetAssociativeCache(tiny, on_evict=lambda i, e: hook_calls.append(e))
        c.access(0x1000)
        snap = c.invalidate(0x1000)
        assert snap is not None and snap.tag == tiny.tag(0x1000)
        assert not c.probe(0x1000)
        assert hook_calls == []

    def test_invalidate_missing_returns_none(self, tiny):
        c = SetAssociativeCache(tiny)
        assert c.invalidate(0x1000) is None


class TestEvictionHook:
    def test_hook_receives_set_and_snapshot(self, tiny):
        calls = []
        c = SetAssociativeCache(tiny, on_evict=lambda i, e: calls.append((i, e)))
        a = 0x1000
        b = a + tiny.size
        c.access(a)
        c.access(b)
        assert len(calls) == 1
        index, evicted = calls[0]
        assert index == tiny.set_index(a)
        assert evicted.tag == tiny.tag(a)

    def test_no_hook_on_fill_into_empty_way(self, tiny):
        calls = []
        c = SetAssociativeCache(tiny, on_evict=lambda i, e: calls.append(e))
        c.access(0x1000)
        c.access(0x1040)  # different set of the 4-set cache
        assert calls == []


class TestIntrospection:
    def test_occupancy_and_resident_blocks(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        c.access(0x2040)
        assert c.occupancy() == 2
        blocks = set(c.resident_blocks())
        assert blocks == {0x1000, 0x2040}

    def test_flush(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        c.flush()
        assert c.occupancy() == 0
        assert not c.probe(0x1000)

    def test_set_conflict_bit(self, tiny):
        c = SetAssociativeCache(tiny)
        c.access(0x1000)
        assert c.set_conflict_bit(0x1000, True)
        assert c.peek_line(0x1000).conflict_bit
        assert not c.set_conflict_bit(0x9000, True)


class TestCapacityBehaviour:
    def test_full_cache_capacity_misses(self, tiny):
        c = SetAssociativeCache(tiny)
        lines = tiny.num_lines
        for i in range(lines * 2):
            c.access(0x1000 + i * tiny.line_size)
        assert c.occupancy() == lines
