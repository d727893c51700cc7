"""Cross-model integration tests.

These pin the relationships *between* the library's models — the
equivalences and orderings that must hold if each piece is implemented
correctly — rather than any single module's behaviour.
"""

from repro.buffers import victim
from repro.cache.geometry import CacheGeometry
from repro.cache.pseudo_assoc import PacVariant
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.accuracy import measure_accuracy
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.memory_system import MemorySystem
from repro.system.pac_system import simulate_pac
from repro.system.policies import BASELINE
from repro.system.simulator import simulate
from repro.workloads.spec_analogs import build


class TestModelEquivalences:
    def test_memory_system_l1_matches_standalone_cache(self):
        """The baseline MemorySystem's L1 behaviour must equal a bare
        SetAssociativeCache on the same reference stream."""
        trace = build("gcc", 15_000)
        system = MemorySystem(BASELINE)
        bare = SetAssociativeCache(PAPER_MACHINE.l1)
        for addr in trace.addresses:
            system.access(int(addr))
            bare.access(int(addr))
        assert system.stats.l1.hits == bare.stats.hits
        assert system.stats.l1.misses == bare.stats.misses

    def test_pac_lru_matches_two_way_miss_rate(self):
        """PAC with true-LRU slot choice is content-equivalent to a 2-way
        cache over paired sets; its miss rate must land very close to the
        2-way system's on real workloads."""
        from dataclasses import replace

        trace = build("li", 20_000)
        two_way = replace(
            PAPER_MACHINE,
            l1=CacheGeometry(size=16 * 1024, assoc=2, line_size=64),
        )
        pac = simulate_pac(trace, PacVariant.LRU)
        w2 = simulate(trace, BASELINE, two_way)
        assert abs(pac.l1.miss_rate - w2.l1.miss_rate) < 1.5

    def test_mct_predictions_match_accuracy_harness(self):
        """The MemorySystem's conflict/capacity counters must agree with
        the standalone accuracy harness run on the same stream."""
        trace = build("tomcatv", 15_000)
        system = MemorySystem(BASELINE)
        for addr in trace.addresses:
            system.access(int(addr))
        acc = measure_accuracy(trace.addresses, PAPER_MACHINE.l1)
        c = acc.classification
        predicted_conflicts = c.conflict_as_conflict + c.capacity_as_conflict
        assert system.stats.conflict_misses_predicted == predicted_conflicts


class TestSystemOrderings:
    """Orderings that must hold across whole-system runs."""

    def test_bigger_buffer_never_hurts_much(self):
        trace = build("tomcatv", 30_000)
        small = simulate(trace, victim.traditional(4), warmup=10_000)
        large = simulate(trace, victim.traditional(16), warmup=10_000)
        assert large.total_hit_rate >= small.total_hit_rate - 0.5

    def test_two_way_l1_beats_dm_on_conflict_heavy_code(self):
        from dataclasses import replace

        trace = build("tomcatv", 30_000)
        two_way = replace(
            PAPER_MACHINE,
            l1=CacheGeometry(size=16 * 1024, assoc=2, line_size=64),
        )
        dm = simulate(trace, BASELINE, warmup=10_000)
        w2 = simulate(trace, BASELINE, two_way, warmup=10_000)
        assert w2.l1.miss_rate < dm.l1.miss_rate

    def test_warmup_improves_measured_hit_rate(self):
        # Use a hot-set-dominated analog, where the cold-start transient
        # is the dominant source of early misses.
        trace = build("m88ksim", 30_000)
        cold = simulate(trace, BASELINE)
        warm = simulate(trace, BASELINE, warmup=15_000)
        assert warm.l1.hit_rate >= cold.l1.hit_rate

    def test_slower_memory_lowers_ipc(self):
        from dataclasses import replace

        from repro.system.config import TimingConfig

        trace = build("compress", 20_000)
        fast = simulate(trace, BASELINE, warmup=5_000)
        slow_machine = MachineConfig(
            timing=replace(TimingConfig(), memory_latency=400)
        )
        slow = simulate(trace, BASELINE, slow_machine, warmup=5_000)
        assert slow.timing.ipc < fast.timing.ipc

    def test_memory_traffic_conserved_without_prefetch(self):
        """Without prefetching or bypass, every L1 miss that misses the
        buffer goes to L2 exactly once."""
        trace = build("gcc", 15_000)
        stats = simulate(trace, victim.traditional())
        expected_l2 = stats.l1.misses - stats.buffer.hits
        assert stats.l2.accesses == expected_l2


class TestDeterminismEndToEnd:
    def test_full_system_run_is_bit_stable(self):
        trace = build("wave5", 10_000)
        a = simulate(trace, victim.filter_both(), warmup=3_000)
        b = simulate(trace, victim.filter_both(), warmup=3_000)
        assert a.timing.cycles == b.timing.cycles
        assert a.l1.hits == b.l1.hits
        assert a.buffer.swaps == b.buffer.swaps

    def test_seed_changes_trace_but_not_shape(self):
        t0 = build("gcc", 10_000, seed=0)
        t1 = build("gcc", 10_000, seed=1)
        assert (t0.addresses != t1.addresses).any()
        s0 = simulate(t0, BASELINE)
        s1 = simulate(t1, BASELINE)
        # Same generator parameters: miss rates within a few points.
        assert abs(s0.l1.miss_rate - s1.l1.miss_rate) < 6.0
