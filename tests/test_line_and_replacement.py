"""Unit tests for cache-line state and replacement policies."""

from repro.cache.line import CacheLine, EvictedLine
from repro.cache.replacement import LRUReplacement


class TestCacheLine:
    def test_starts_invalid(self):
        line = CacheLine()
        assert not line.valid
        assert not line.conflict_bit

    def test_fill_sets_state(self):
        line = CacheLine()
        line.fill(0xAB, now=7, conflict_bit=True)
        assert line.valid
        assert line.tag == 0xAB
        assert line.conflict_bit
        assert line.last_touch == 7

    def test_fill_overwrites_previous_state(self):
        line = CacheLine()
        line.fill(1, now=1, conflict_bit=True, dirty=True)
        line.fill(2, now=2)
        assert line.tag == 2
        assert not line.conflict_bit
        assert not line.dirty

    def test_touch_updates_last_touch_only(self):
        line = CacheLine()
        line.fill(1, now=1, conflict_bit=True)
        line.touch(9)
        assert line.last_touch == 9
        assert (line.tag, line.valid, line.conflict_bit) == (1, True, True)

    def test_invalidate_clears_everything(self):
        line = CacheLine()
        line.fill(1, now=1, conflict_bit=True, dirty=True)
        line.invalidate()
        assert not line.valid
        assert not line.dirty
        assert not line.conflict_bit
        assert line.last_touch == -1

    def test_snapshot_is_frozen_copy(self):
        line = CacheLine()
        line.fill(5, now=3, conflict_bit=True, dirty=True)
        snap = line.snapshot()
        line.invalidate()
        assert isinstance(snap, EvictedLine)
        assert snap.tag == 5
        assert snap.conflict_bit
        assert snap.dirty


def _lines(*specs):
    """specs: (valid, last_touch) pairs."""
    out = []
    for valid, touch in specs:
        line = CacheLine()
        if valid:
            line.fill(0, now=touch)
        out.append(line)
    return out


class TestLRU:
    def test_prefers_invalid_way(self):
        lines = _lines((True, 9), (False, 0), (True, 2))
        assert LRUReplacement().choose_victim(lines) == 1

    def test_evicts_least_recently_touched(self):
        lines = _lines((True, 9), (True, 3), (True, 7))
        assert LRUReplacement().choose_victim(lines) == 1

    def test_single_way(self):
        lines = _lines((True, 5))
        assert LRUReplacement().choose_victim(lines) == 0

    def test_policy_name_property(self):
        assert LRUReplacement().name == "lru"
