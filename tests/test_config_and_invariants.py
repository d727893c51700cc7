"""Machine-config validation and whole-system invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.pseudo_assoc import PacVariant, PseudoAssociativeCache
from repro.cache.stats import SystemStats
from repro.core import accuracy
from repro.harness.invariants import InvariantViolation, check_system_stats
from repro.system import buffered, vector
from repro.system.config import (
    MachineConfig,
    PAPER_MACHINE,
    SLOW_BUS_MACHINE,
    TimingConfig,
)
from repro.system.memory_system import MemorySystem
from repro.system.multithreaded import simulate_shared
from repro.system.pac_system import simulate_pac
from repro.system.policies import BASELINE
from repro.system.simulator import simulate
from repro.system.timing import TimingModel
from repro.buffers import amb, victim
from repro.workloads.spec_analogs import build


class TestMachineConfig:
    def test_paper_machine_parameters(self):
        m = PAPER_MACHINE
        assert m.l1.size == 16 * 1024 and m.l1.assoc == 1
        assert m.l2.size == 1 << 20 and m.l2.assoc == 2
        assert m.timing.l2_latency == 20
        assert m.timing.memory_latency == 120
        assert m.timing.mshrs == 16
        assert m.timing.width == 8

    def test_slow_bus_machine_differs_only_in_bus(self):
        assert (
            SLOW_BUS_MACHINE.timing.bus_transfer_cycles
            > PAPER_MACHINE.timing.bus_transfer_cycles
        )
        assert SLOW_BUS_MACHINE.l1 == PAPER_MACHINE.l1

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ValueError, match="share a line size"):
            MachineConfig(
                l1=CacheGeometry(size=16 * 1024, assoc=1, line_size=32),
                l2=CacheGeometry(size=1 << 20, assoc=2, line_size=64),
            )

    def test_rejects_l2_smaller_than_l1(self):
        with pytest.raises(ValueError, match="at least as large"):
            MachineConfig(
                l1=CacheGeometry(size=64 * 1024, assoc=1, line_size=64),
                l2=CacheGeometry(size=32 * 1024, assoc=2, line_size=64),
            )


# Hypothesis strategies over a tiny address space.
blocks = st.integers(min_value=0, max_value=100)
streams = st.lists(blocks, min_size=1, max_size=250)


class TestTimingInvariants:
    @given(streams)
    @settings(deadline=None, max_examples=30)
    def test_clock_is_monotone(self, refs):
        t = TimingModel(TimingConfig())
        last = 0.0
        for i, b in enumerate(refs):
            t.step(2)
            if b % 3 == 0:
                t.issue_miss(20.0)
            elif b % 7 == 0:
                t.issue_prefetch(20.0)
            assert t.clock >= last
            last = t.clock
        stats = t.finish()
        assert stats.cycles >= last
        assert stats.stall_cycles >= 0
        assert stats.contention_cycles >= 0

    @given(streams)
    @settings(deadline=None, max_examples=30)
    def test_cycles_at_least_issue_time(self, refs):
        """Total cycles can never undercut pure issue bandwidth."""
        t = TimingModel(TimingConfig())
        for b in refs:
            t.step(3)
            if b % 2 == 0:
                t.issue_miss(50.0)
        stats = t.finish()
        assert stats.cycles >= stats.instructions / t.config.issue_rate - 1e-9


class TestMemorySystemInvariants:
    @given(streams)
    @settings(deadline=None, max_examples=20)
    def test_counter_conservation(self, refs):
        system = MemorySystem(amb.vic_pre_exc())
        for b in refs:
            system.access(b * 64)
        stats = system.finish()
        l1 = stats.l1
        assert l1.hits + l1.misses == l1.accesses == len(refs)
        assert stats.buffer.hits <= l1.misses
        assert (
            stats.conflict_misses_predicted + stats.capacity_misses_predicted
            == l1.misses
        )
        b = stats.buffer
        assert b.victim_hits + b.prefetch_hits + b.exclusion_hits == b.hits
        assert b.prefetches_used + b.prefetches_wasted <= b.prefetches_issued

    @given(streams)
    @settings(deadline=None, max_examples=20)
    def test_l2_sees_only_buffer_misses_plus_prefetches(self, refs):
        system = MemorySystem(amb.vict_pref())
        for b in refs:
            system.access(b * 64)
        stats = system.finish()
        demand_fetches = stats.l1.misses - stats.buffer.hits
        assert stats.l2.accesses == demand_fetches + stats.buffer.prefetches_issued


class TestPacInvariants:
    @given(streams)
    @settings(deadline=None, max_examples=20)
    def test_no_duplicate_blocks(self, refs):
        geo = CacheGeometry(size=1024, assoc=1, line_size=64)  # 16 slots
        pac = PseudoAssociativeCache(geo, PacVariant.MCT)
        for b in refs:
            pac.access(b * 64)
            resident = [
                line.tag for line in pac._slots if line.valid
            ]
            assert len(resident) == len(set(resident))

    @given(streams)
    @settings(deadline=None, max_examples=20)
    def test_hit_after_access(self, refs):
        from repro.cache.pseudo_assoc import PacHit

        geo = CacheGeometry(size=1024, assoc=1, line_size=64)
        pac = PseudoAssociativeCache(geo, PacVariant.CLASSIC)
        for b in refs:
            pac.access(b * 64)
            assert pac.probe(b * 64) is not PacHit.MISS


class TestUndeclaredCounters:
    """A counter stored under a misspelt name is an invariant violation:
    ``reset()``, ``merge()`` and ``as_dict()`` walk the declared fields
    only, so the store would silently never reach a report."""

    def test_undeclared_attributes_are_named(self):
        stats = SystemStats()
        stats.l1.hitz = 1
        stats.buffer.swapz = 1
        stats.memory_acesses = 1
        with pytest.raises(InvariantViolation) as excinfo:
            check_system_stats(stats)
        for path in ("l1.hitz", "buffer.swapz", "memory_acesses"):
            assert path in str(excinfo.value)


def one_more_ref(timing):
    timing.memory_refs += 1


def one_more_hit(result):
    result.cache.hits += 1


GCC = build("gcc", 2_000, 0)

#: (entry point, the callable producing its counters, their damage, the
#: law that catches it).  Each damaged callable runs inside the entry
#: point's own call, before the statistics are returned.
ENTRY_POINTS = {
    "scalar": (
        lambda: simulate(GCC, BASELINE, warmup=500, engine="scalar"),
        (TimingModel, "finish"), one_more_ref, "timing saw",
    ),
    "buffered": (
        lambda: simulate(GCC, victim.filter_both(), warmup=500),
        (buffered, "TimingStats"), one_more_ref, "timing saw",
    ),
    "numpy": (
        lambda: simulate(GCC, BASELINE, warmup=500),
        (vector, "_replay_timing"), one_more_ref, "timing saw",
    ),
    "pac": (
        lambda: simulate_pac(GCC, warmup=500),
        (TimingModel, "finish"), one_more_ref, "timing saw",
    ),
    "shared": (
        lambda: simulate_shared([GCC, build("swim", 2_000, 0)]),
        (TimingModel, "finish"), one_more_ref, "timing saw",
    ),
    "accuracy": (
        lambda: accuracy.measure_accuracy(GCC.addresses, PAPER_MACHINE.l1),
        (accuracy, "_result_at"), one_more_hit, r"hits \+ misses",
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_checks_its_counters(entry, monkeypatch):
    # No variable set and no setter called: the checks have no switch.
    run, (owner, name), damage, law = ENTRY_POINTS[entry]
    real = getattr(owner, name)

    def damaged(*args, **kwargs):
        out = real(*args, **kwargs)
        damage(out)
        return out

    run()  # undamaged, every law holds
    monkeypatch.setattr(owner, name, damaged)
    with pytest.raises(InvariantViolation, match=law):
        run()
