"""Integration-level tests for the policy-configurable memory system."""

import pytest

from repro.buffers import amb, exclusion, prefetch, victim
from repro.system.config import PAPER_MACHINE
from repro.system.memory_system import MemorySystem
from repro.system.policies import AssistConfig, BASELINE, ExclusionMode

L1_SIZE = PAPER_MACHINE.l1.size


def run(system: MemorySystem, addresses, gap=3):
    for addr in addresses:
        system.access(addr, gap=gap)
    return system.finish()


class TestBaseline:
    def test_no_buffer_counts_only_caches(self):
        sys = MemorySystem(BASELINE)
        stats = run(sys, [0x1000, 0x1000, 0x2000])
        assert stats.l1.accesses == 3
        assert stats.l1.hits == 1
        assert stats.buffer.hits == 0
        assert sys.buffer is None

    def test_l2_catches_l1_evictions(self):
        sys = MemorySystem(BASELINE)
        a, b = 0x100000, 0x100000 + L1_SIZE
        stats = run(sys, [a, b, a, b, a])
        # After the two cold misses every access misses L1 but hits L2.
        assert stats.l2.accesses == 5
        assert stats.l2.hits == 3
        assert stats.memory_accesses == 2

    def test_classification_counters(self):
        sys = MemorySystem(BASELINE)
        a, b = 0x100000, 0x100000 + L1_SIZE
        stats = run(sys, [a, b] * 10)
        assert stats.conflict_misses_predicted == 18  # all but 2 cold misses
        assert stats.capacity_misses_predicted == 2


class TestVictimPolicies:
    def test_traditional_victim_catches_ping_pong(self):
        sys = MemorySystem(victim.traditional())
        a, b = 0x100000, 0x100000 + L1_SIZE
        stats = run(sys, [a, b] * 20)
        assert stats.buffer.victim_hits > 30
        assert stats.buffer.swaps > 30  # every victim hit swaps

    def test_no_swap_filter_eliminates_swaps(self):
        sys = MemorySystem(victim.filter_swaps())
        a, b = 0x100000, 0x100000 + L1_SIZE
        stats = run(sys, [a, b] * 20)
        # With swaps filtered, 'a' settles in the buffer and 'b' in L1:
        # every round is one buffer hit plus one L1 hit, and no swaps.
        assert stats.buffer.victim_hits == 19
        assert stats.l1.hits == 19
        assert stats.buffer.swaps == 0

    def test_fill_filter_skips_capacity_evictions(self):
        sys = MemorySystem(victim.filter_fills())
        # Three lines per set (768 = 3x256): the MCT entry never matches
        # the returning line, so every eviction is a capacity event.
        sweep = [0x200000 + i * 64 for i in range(768)]
        stats = run(sys, sweep + sweep)
        assert stats.buffer.fills == 0

    def test_fill_filter_admits_two_deep_sweep(self):
        # Two lines per set is the paper's conflict near-miss by the MCT
        # definition (a 2-way cache would hold both), even though Hill's
        # classic definition calls a 512-line sweep capacity.
        sys = MemorySystem(victim.filter_fills())
        sweep = [0x200000 + i * 64 for i in range(512)]
        stats = run(sys, sweep + sweep + sweep)
        assert stats.buffer.fills > 500

    def test_traditional_fills_on_every_valid_eviction(self):
        sys = MemorySystem(victim.traditional())
        sweep = [0x200000 + i * 64 for i in range(768)]
        stats = run(sys, sweep + sweep)
        assert stats.buffer.fills > 500

    def test_victim_hit_total_rate_beats_baseline(self):
        a, b = 0x100000, 0x100000 + L1_SIZE
        trace = [a, b] * 50
        base = run(MemorySystem(BASELINE), trace)
        with_vc = run(MemorySystem(victim.traditional()), trace)
        assert with_vc.total_hit_rate > base.total_hit_rate + 50


class TestPrefetchPolicies:
    def test_next_line_covers_streaming(self):
        sys = MemorySystem(prefetch.next_line())
        sweep = [0x200000 + i * 64 for i in range(300)]
        stats = run(sys, sweep)
        assert stats.buffer.prefetches_issued > 250
        assert stats.buffer.prefetches_used > 250
        assert stats.buffer.prefetch_hits > 250

    def test_filter_suppresses_conflict_prefetches(self):
        # Twelve ping-pong pairs in different sets: the 8-entry buffer
        # churns, so the unfiltered prefetcher keeps re-issuing on every
        # conflict miss while the filtered one only prefetches cold misses.
        trace = []
        for _ in range(10):
            for i in range(12):
                a = 0x100000 + i * 64
                trace += [a, a + L1_SIZE]
        unfiltered = run(MemorySystem(prefetch.next_line()), trace)
        filtered = run(
            MemorySystem(prefetch.figure4_policies()[4]), trace  # or-conflict
        )
        assert filtered.buffer.prefetches_issued < unfiltered.buffer.prefetches_issued

    def test_random_stream_wastes_prefetches(self):
        import random

        rnd = random.Random(3)
        trace = [0x400000 + rnd.randrange(0, 8192) * 64 for _ in range(800)]
        stats = run(MemorySystem(prefetch.next_line()), trace)
        assert stats.buffer.prefetches_wasted > stats.buffer.prefetches_used

    def test_no_prefetch_when_next_line_resident(self):
        sys = MemorySystem(prefetch.next_line())
        sys.access(0x200040)     # brings line 1 in
        sys.access(0x200000)     # miss line 0; next line already in L1
        stats = sys.finish()
        # Only the first miss's prefetch (of line 2) may be issued.
        assert stats.buffer.prefetches_issued <= 1


class TestExclusionPolicies:
    def test_capacity_bypass_keeps_l1_clean(self):
        sys = MemorySystem(exclusion.exclusion(ExclusionMode.CAPACITY))
        sweep = [0x200000 + i * 64 for i in range(100)]
        stats = run(sys, sweep)
        # Cold streaming misses are all capacity: everything bypasses.
        assert stats.l1.fills == 0
        assert stats.buffer.fills == 100

    def test_conflict_bypass_routes_ping_pong(self):
        sys = MemorySystem(exclusion.exclusion(ExclusionMode.CONFLICT))
        a, b = 0x100000, 0x100000 + L1_SIZE
        stats = run(sys, [a, b] * 20)
        assert stats.buffer.fills > 0
        assert stats.buffer.exclusion_hits > 0

    def test_bypass_buffer_serves_spatial_bursts(self):
        sys = MemorySystem(exclusion.exclusion(ExclusionMode.CAPACITY))
        # 4 word accesses per line, no reuse: bursts hit the bypass buffer.
        trace = []
        for i in range(100):
            base = 0x200000 + i * 64
            trace += [base, base + 8, base + 16, base + 24]
        stats = run(sys, trace)
        assert stats.buffer.exclusion_hits == 300

    def test_mct_install_on_bypass_enables_conflict_detection(self):
        cfg = exclusion.exclusion(ExclusionMode.CAPACITY)
        sys = MemorySystem(cfg)
        a = 0x100000
        sys.access(a)  # capacity miss -> bypassed, tag installed in MCT
        assert sys.mct.classify_is_conflict(a)

    def test_mct_install_ablation(self):
        cfg = AssistConfig(
            name="no-install",
            buffer_entries=16,
            exclusion=ExclusionMode.CAPACITY,
            mct_install_on_bypass=False,
        )
        sys = MemorySystem(cfg)
        sys.access(0x100000)
        assert not sys.mct.classify_is_conflict(0x100000)

    def test_mat_mode_tracks_every_access(self):
        sys = MemorySystem(exclusion.exclusion(ExclusionMode.MAT))
        run(sys, [0x1000, 0x1000, 0x2000])
        assert sys.mat is not None
        assert sys.mat.accesses == 3

    def test_history_mode_builds_table(self):
        sys = MemorySystem(exclusion.exclusion(ExclusionMode.CAPACITY_HISTORY))
        sweep = [0x200000 + i * 64 for i in range(300)]
        stats = run(sys, sweep * 2)
        assert sys.history is not None
        assert stats.buffer.fills > 0  # flagged regions eventually bypass


class TestAMBCombination:
    def test_vict_pref_splits_roles(self):
        sys = MemorySystem(amb.vict_pref())
        a, b = 0x100000, 0x100000 + L1_SIZE
        ping = [a, b] * 20
        sweep = [0x200000 + i * 64 for i in range(200)]
        stats = run(sys, ping + sweep + ping)
        assert stats.buffer.victim_hits > 0
        assert stats.buffer.prefetch_hits > 0

    def test_vic_pre_exc_uses_all_three_roles(self):
        sys = MemorySystem(amb.vic_pre_exc())
        a = 0x100000
        c = a + L1_SIZE  # conflicts with a
        # Churn sets 64+ so the bypass installs don't clobber set 0's
        # MCT entry (where a and c live).
        churn1 = [0x400000 + 0x1000 + i * 128 for i in range(16)]
        churn2 = [0x600000 + 0x1000 + i * 128 for i in range(16)]
        churn3 = [0x800000 + 0x1000 + i * 128 for i in range(16)]
        trace = (
            [a] + churn1 + [a]      # a: bypass, churn out, return as conflict -> L1
            + [c] + churn2 + [c]    # c likewise: conflict fill evicts a -> victim
            + [a]                   # victim-buffer hit
            + churn3
        )
        stats = run(sys, trace)
        assert stats.buffer.victim_hits > 0
        assert stats.buffer.exclusion_hits >= 0
        assert stats.buffer.fills > 20          # bypassed capacity misses
        assert stats.buffer.prefetches_issued > 0

    def test_policy_with_entries_resizes(self):
        p8 = amb.vict_pref(8)
        p16 = p8.with_entries(16)
        assert p16.buffer_entries == 16
        assert p16.name == p8.name
        assert MemorySystem(p16).buffer.capacity == 16


class TestWarmupReset:
    def test_reset_clears_stats_keeps_contents(self):
        sys = MemorySystem(victim.traditional())
        a, b = 0x100000, 0x100000 + L1_SIZE
        for addr in [a, b] * 10:
            sys.access(addr)
        sys.reset_measurement()
        assert sys.stats.l1.accesses == 0
        assert sys.timing.clock == 0.0
        # Contents survive: the next access to a warm line hits.
        sys.access(b)
        assert sys.stats.l1.hits + sys.stats.buffer.hits == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="uses the assist buffer"):
            AssistConfig(name="bad", buffer_entries=0, prefetch=True)
