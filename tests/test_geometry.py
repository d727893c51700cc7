"""Unit tests for cache geometry and address arithmetic."""

import pytest

from repro.cache.geometry import AddressParts, CacheGeometry


class TestConstruction:
    def test_paper_l1(self):
        g = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
        assert g.num_sets == 256
        assert g.offset_bits == 6
        assert g.index_bits == 8
        assert g.num_lines == 256

    def test_two_way_halves_sets(self):
        g = CacheGeometry(size=16 * 1024, assoc=2, line_size=64)
        assert g.num_sets == 128
        assert g.num_lines == 256

    def test_l2_geometry(self):
        g = CacheGeometry(size=1 << 20, assoc=2, line_size=64)
        assert g.num_sets == 8192

    def test_fully_associative_extreme(self):
        g = CacheGeometry(size=512, assoc=8, line_size=64)
        assert g.num_sets == 1
        assert g.index_bits == 0

    @pytest.mark.parametrize("size", [0, 3, 1000, -64])
    def test_rejects_bad_size(self, size):
        with pytest.raises(ValueError):
            CacheGeometry(size=size, assoc=1, line_size=64)

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheGeometry(size=1024, assoc=1, line_size=48)

    def test_rejects_non_pow2_assoc(self):
        with pytest.raises(ValueError):
            CacheGeometry(size=1024, assoc=3, line_size=64)

    def test_rejects_assoc_exceeding_lines(self):
        with pytest.raises(ValueError):
            CacheGeometry(size=256, assoc=8, line_size=64)


class TestAddressMath:
    def test_split_compose_roundtrip(self, dm16k):
        addr = 0x1234_5678
        parts = dm16k.split(addr)
        assert dm16k.compose(parts.tag, parts.index, parts.offset) == addr

    def test_split_fields(self, dm16k):
        addr = 0x1234_5678
        parts = dm16k.split(addr)
        assert isinstance(parts, AddressParts)
        assert parts.offset == addr % 64
        assert parts.index == (addr >> 6) % 256
        assert parts.tag == addr >> 14

    def test_block_address_alignment(self, dm16k):
        assert dm16k.block_address(0x1001) == 0x1000
        assert dm16k.block_address(0x103F) == 0x1000
        assert dm16k.block_address(0x1040) == 0x1040

    def test_block_number(self, dm16k):
        assert dm16k.block_number(0) == 0
        assert dm16k.block_number(63) == 0
        assert dm16k.block_number(64) == 1

    def test_next_line(self, dm16k):
        assert dm16k.next_line(0x1000) == 0x1040
        assert dm16k.next_line(0x103F) == 0x1040

    def test_same_set_different_tag_conflicts(self, dm16k):
        a = 0x10000
        b = a + dm16k.size  # same index, different tag
        assert dm16k.set_index(a) == dm16k.set_index(b)
        assert dm16k.tag(a) != dm16k.tag(b)

    def test_compose_rejects_out_of_range_index(self, dm16k):
        with pytest.raises(ValueError):
            dm16k.compose(1, dm16k.num_sets, 0)

    def test_compose_rejects_out_of_range_offset(self, dm16k):
        with pytest.raises(ValueError):
            dm16k.compose(1, 0, 64)

    def test_with_assoc_preserves_capacity(self, dm16k):
        g2 = dm16k.with_assoc(2)
        assert g2.size == dm16k.size
        assert g2.num_lines == dm16k.num_lines
        assert g2.num_sets == dm16k.num_sets // 2

    def test_describe(self, dm16k, w2_16k):
        assert dm16k.describe() == "16KB DM, 64B lines"
        assert w2_16k.describe() == "16KB 2-way, 64B lines"

    def test_index_covers_all_sets(self, dm16k):
        seen = {dm16k.set_index(line * 64) for line in range(dm16k.num_sets)}
        assert seen == set(range(dm16k.num_sets))
