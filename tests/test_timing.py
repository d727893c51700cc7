"""Unit tests for the cycle-accounting timing model."""

import pytest

from repro.system.config import TimingConfig
from repro.system.timing import TimingModel


def model(**kw):
    return TimingModel(TimingConfig(**kw))


class TestInstructionFlow:
    def test_clean_code_runs_at_issue_rate(self):
        t = model(issue_rate=4.0)
        for _ in range(100):
            t.step(3)  # 4 instructions per ref
        stats = t.finish()
        assert stats.instructions == 400
        assert stats.cycles == pytest.approx(100.0)
        assert stats.ipc == pytest.approx(4.0)

    def test_memory_refs_counted(self):
        t = model()
        t.step(0)
        t.step(0)
        assert t.stats.memory_refs == 2


class TestWindowRule:
    def test_short_latency_fully_hidden(self):
        t = model(issue_rate=1.0, rob_window=32)
        t.step(0)
        t.issue_miss(5.0)  # completes long before the window closes
        for _ in range(50):
            t.step(0)
        assert t.finish().stall_cycles == 0

    def test_long_miss_stalls_at_window_edge(self):
        t = model(issue_rate=1.0, rob_window=10)
        t.step(0)           # clock 1
        t.issue_miss(100.0)  # completes at 101
        for _ in range(30):
            t.step(0)
        stats = t.finish()
        # The core slides to instruction 12 (clock 12) then stalls to 101.
        assert stats.stall_cycles == pytest.approx(89.0)
        assert stats.cycles >= 101.0

    def test_overlapping_misses_share_stall(self):
        """Two misses back to back: MLP hides the second's latency."""
        t = model(issue_rate=1.0, rob_window=10)
        t.step(0)
        t.issue_miss(100.0)   # completes ~101
        t.step(0)
        t.issue_miss(100.0)   # completes ~102
        for _ in range(40):
            t.step(0)
        stats = t.finish()
        # Serial exposure would be ~190; overlapped it is ~100.
        assert stats.stall_cycles < 120.0

    def test_finish_drains_pending(self):
        t = model(issue_rate=1.0)
        t.step(0)
        t.issue_miss(50.0)
        stats = t.finish()
        assert stats.cycles >= 51.0


class TestMSHRs:
    def test_mshr_exhaustion_stalls_demand(self):
        t = model(issue_rate=1.0, mshrs=2, rob_window=1000)
        t.step(0)
        t.issue_miss(100.0)
        t.issue_miss(100.0)
        assert not t.mshr_available()
        t.issue_miss(100.0)  # must wait for the first to complete
        assert t.stats.stall_cycles > 0

    def test_prefetch_discarded_when_full(self):
        t = model(issue_rate=1.0, mshrs=1, rob_window=1000)
        t.step(0)
        t.issue_miss(100.0)
        assert t.issue_prefetch(100.0) is None

    def test_prefetch_holds_mshr(self):
        t = model(issue_rate=1.0, mshrs=2, rob_window=1000)
        t.step(0)
        assert t.issue_prefetch(100.0) is not None
        assert t.issue_prefetch(100.0) is not None
        assert t.issue_prefetch(100.0) is None  # full

    def test_prefetch_mshr_freed_after_completion(self):
        t = model(issue_rate=1.0, mshrs=1, rob_window=1000)
        t.step(0)
        assert t.issue_prefetch(5.0) is not None
        for _ in range(10):
            t.step(0)  # clock passes completion
        assert t.mshr_available()

    def test_prefetch_never_stalls_retirement(self):
        t = model(issue_rate=1.0, rob_window=5)
        t.step(0)
        t.issue_prefetch(1000.0)
        for _ in range(50):
            t.step(0)
        assert t.finish().stall_cycles == 0


class TestResources:
    def test_bus_serialises(self):
        t = model(bus_transfer_cycles=4)
        s1 = t.acquire_bus(0.0)
        s2 = t.acquire_bus(0.0)
        assert s1 == 0.0
        assert s2 == 4.0
        assert t.stats.contention_cycles == pytest.approx(4.0)

    def test_bank_occupancy(self):
        t = model()
        s1 = t.occupy_bank(0, 2)
        s2 = t.occupy_bank(0, 2)
        s3 = t.occupy_bank(1, 2)  # different bank: free
        assert s1 == 0.0 and s2 == 2.0 and s3 == 0.0

    def test_buffer_port_occupancy(self):
        t = model()
        assert t.occupy_buffer(2) == 0.0
        assert t.occupy_buffer(2) == 2.0

    def test_short_op_hidden_within_window(self):
        t = model(issue_rate=1.0, rob_window=32)
        t.step(0)
        t.note_short_op(t.clock + 2.0)
        for _ in range(10):
            t.step(0)
        assert t.finish().stall_cycles == 0


class TestResetMeasurement:
    def test_reset_zeroes_clock_and_pending(self):
        t = model(issue_rate=1.0)
        t.step(0)
        t.issue_miss(100.0)
        t.reset_measurement()
        assert t.clock == 0.0
        assert t.instructions == 0
        assert t.mshr_available()
        stats = t.finish()
        assert stats.cycles == 0.0
        assert stats.stall_cycles == 0.0


class TestConfigValidation:
    def test_rejects_bad_issue_rate(self):
        with pytest.raises(ValueError):
            TimingConfig(issue_rate=0)
        with pytest.raises(ValueError):
            TimingConfig(issue_rate=9.0, width=8)

    def test_rejects_memory_faster_than_l2(self):
        with pytest.raises(ValueError):
            TimingConfig(l2_latency=20, memory_latency=10)

    @pytest.mark.parametrize(
        ("field", "kwargs"),
        [
            ("rob_window", {"rob_window": -1}),
            ("l1_latency", {"l1_latency": -1}),
            ("buffer_latency", {"buffer_latency": -1}),
            ("l2_latency", {"l2_latency": -3, "memory_latency": -2}),
            ("memory_latency", {"l2_latency": 0, "memory_latency": -2}),
            ("bus_transfer_cycles", {"bus_transfer_cycles": -1}),
            ("bank_busy_cycles", {"bank_busy_cycles": -1}),
            ("swap_busy_cycles", {"swap_busy_cycles": -2}),
            ("buffer_busy_cycles", {"buffer_busy_cycles": -1}),
            ("n_banks", {"n_banks": 0}),
        ],
    )
    def test_rejects_impossible_timing_naming_the_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TimingConfig(**kwargs)

    def test_zero_cycles_stay_legal(self):
        # An ablation may make swaps free; a zero window retires at once.
        cfg = TimingConfig(
            rob_window=0, swap_busy_cycles=0, bank_busy_cycles=0,
            buffer_busy_cycles=0, l1_latency=0, buffer_latency=0,
        )
        assert cfg.swap_busy_cycles == 0 and cfg.rob_window == 0

    def test_slow_bus_variant(self):
        cfg = TimingConfig().with_slow_bus()
        assert cfg.bus_transfer_cycles > TimingConfig().bus_transfer_cycles
