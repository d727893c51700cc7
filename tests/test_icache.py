"""Tests for the instruction-cache streams and MCT applicability (§4)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.accuracy import measure_accuracy
from repro.workloads.icache import (
    Function,
    conflicting_call_workload,
    program,
)

ICACHE = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)


class TestFunction:
    def test_fetch_addresses_cover_body(self):
        f = Function("f", base=0x1000, size=64)
        addrs = f.fetch_addresses()
        assert addrs == [0x1000, 0x1010, 0x1020, 0x1030]

    def test_loop_re_executes_tail(self):
        f = Function("f", base=0x1000, size=64, loop_body=32, loop_trips=2)
        addrs = f.fetch_addresses()
        # straight-line once, then the 32-byte tail twice more
        assert addrs == [
            0x1000, 0x1010, 0x1020, 0x1030,
            0x1020, 0x1030, 0x1020, 0x1030,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            Function("f", base=0, size=8)
        with pytest.raises(ValueError):
            Function("f", base=0, size=64, loop_body=128)


class TestProgram:
    def test_concatenates_calls(self):
        f = Function("f", base=0x1000, size=32)
        g = Function("g", base=0x2000, size=32)
        t = program([f, g], [0, 1, 0])
        assert len(t) == 6
        assert int(t.addresses[0]) == 0x1000
        assert int(t.addresses[2]) == 0x2000
        assert (t.gaps == 0).all()

    def test_requires_functions(self):
        with pytest.raises(ValueError):
            program([], [0])


class TestMCTOnInstructionStreams:
    def test_aliasing_functions_classified_as_conflicts(self):
        """The caller/callee alias is the I-cache conflict near-miss; the
        MCT classifies it just as well as on data streams."""
        trace = conflicting_call_workload(ICACHE.size, with_cold_code=False)
        res = measure_accuracy(trace.addresses, ICACHE)
        assert res.miss_rate > 10
        assert res.conflict_fraction > 90       # nearly all misses conflict
        assert res.conflict_accuracy > 95       # and the MCT catches them

    def test_mixed_stream_keeps_both_kinds(self):
        trace = conflicting_call_workload(ICACHE.size, with_cold_code=True)
        res = measure_accuracy(trace.addresses, ICACHE)
        assert 10 < res.conflict_fraction < 95
        assert res.conflict_accuracy > 85
        assert res.capacity_accuracy > 85

    def test_loops_hit_after_first_trip(self):
        from repro.cache.set_assoc import SetAssociativeCache

        f = Function("f", base=0x1000, size=512, loop_body=256, loop_trips=10)
        t = program([f], [0])
        cache = SetAssociativeCache(ICACHE)
        for addr in t.addresses:
            cache.access(int(addr))
        # One compulsory miss per line; every loop trip after that hits.
        assert cache.stats.misses == 512 // 64
        assert cache.stats.hit_rate > 80

    def test_victim_buffer_covers_icache_conflicts(self):
        """§4's remark, end to end: a victim-filtered assist buffer works
        on the instruction stream too."""
        from repro.buffers.victim import traditional
        from repro.system.simulator import simulate

        # Small hot functions (4 lines each): a footprint an 8-entry
        # victim buffer can actually cover, like the paper's data-side
        # victim experiments.
        trace = conflicting_call_workload(
            ICACHE.size, hot_size=256, with_cold_code=False
        )
        base_ = simulate(trace, __import__("repro.system.policies",
                                           fromlist=["BASELINE"]).BASELINE)
        vc = simulate(trace, traditional())
        assert vc.buffer.victim_hits > 0
        assert vc.total_hit_rate > base_.total_hit_rate
