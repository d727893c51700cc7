"""Tests for the trace-driven runners (assist-buffer and PAC systems)."""

import pytest

from repro.buffers import victim
from repro.cache.pseudo_assoc import PacVariant
from repro.system.config import PAPER_MACHINE
from repro.system.pac_system import PacMemorySystem, simulate_pac
from repro.system.policies import BASELINE
from repro.system.simulator import geomean, mean, simulate, simulate_policies, speedup
from repro.workloads.trace import Trace

L1_SIZE = PAPER_MACHINE.l1.size


def trace(addresses, **kw):
    return Trace(list(addresses), **kw)


class TestSimulate:
    def test_returns_finished_stats(self):
        t = trace([0x1000, 0x1000, 0x2000])
        stats = simulate(t, BASELINE)
        assert stats.l1.accesses == 3
        assert stats.timing.cycles > 0
        assert stats.timing.instructions == t.total_instructions

    def test_warmup_excluded_from_stats(self):
        t = trace([0x1000] * 10)
        stats = simulate(t, BASELINE, warmup=5)
        assert stats.l1.accesses == 5
        assert stats.l1.hits == 5  # warm line

    def test_warmup_bounds_checked(self):
        t = trace([0x1000])
        with pytest.raises(ValueError):
            simulate(t, BASELINE, warmup=2)

    def test_warmup_consuming_whole_trace_rejected(self):
        # Regression: warmup == len(trace) used to be accepted and
        # produced an all-zero measurement (division hazards downstream).
        t = trace([0x1000] * 8)
        with pytest.raises(ValueError, match="at least one"):
            simulate(t, BASELINE, warmup=len(t))
        with pytest.raises(ValueError):
            simulate(t, BASELINE, warmup=-1)
        stats = simulate(t, BASELINE, warmup=len(t) - 1)
        assert stats.l1.accesses == 1
        # simulate_pac holds the same bound and message.
        with pytest.raises(ValueError, match="at least one"):
            simulate_pac(t, warmup=len(t))
        with pytest.raises(ValueError, match="at least one"):
            simulate_pac(t, warmup=-1)
        pac = simulate_pac(t, warmup=len(t) - 1)
        assert pac.l1.accesses == 1 and pac.timing.cycles > 0

    def test_deterministic(self):
        t = trace([0x1000 + (i * 2741) % 65536 for i in range(500)])
        a = simulate(t, victim.traditional())
        b = simulate(t, victim.traditional())
        assert a.timing.cycles == b.timing.cycles
        assert a.l1.hits == b.l1.hits

    @pytest.mark.parametrize("warmup", [0, 500])
    def test_matches_boxed_reference_loop(self, warmup):
        """Regression: the tolist() hot loop must be observably identical
        to the old per-reference numpy-scalar-boxing loop — the stats are
        compared through their serialized (byte) form."""
        import json

        from repro.system.memory_system import MemorySystem

        n = 2_000
        t = trace(
            [0x1000 + (i * 2741) % 65536 for i in range(n)],
            is_load=[i % 3 != 0 for i in range(n)],
            gaps=[i % 7 for i in range(n)],
        )
        for policy in (BASELINE, victim.traditional()):
            fast = simulate(t, policy, warmup=warmup)
            system = MemorySystem(policy, PAPER_MACHINE)
            addresses, is_load, gaps = t.addresses, t.is_load, t.gaps
            for i in range(warmup):
                system.access(
                    int(addresses[i]), is_load=bool(is_load[i]), gap=int(gaps[i])
                )
            if warmup:
                system.reset_measurement()
            for i in range(warmup, n):
                system.access(
                    int(addresses[i]), is_load=bool(is_load[i]), gap=int(gaps[i])
                )
            reference = system.finish()
            assert (
                json.dumps(fast.as_dict(), sort_keys=True).encode()
                == json.dumps(reference.as_dict(), sort_keys=True).encode()
            )

    def test_hot_loop_sheds_triple_copy(self):
        """Regression for the tolist()-then-double-slice bug: simulate()
        used to materialise each trace column once via tolist() and then
        AGAIN via [:warmup] and [warmup:] slices — three full copies per
        column.  The fix feeds one shared zip iterator through islice,
        so peak allocation must undercut the old shape by at least the
        size of one warmup slice's pointer block, with stats untouched."""
        import json
        import tracemalloc

        from repro.system.memory_system import MemorySystem

        n, w = 30_000, 15_000
        t = trace(
            [0x1000 + (i * 2741) % 65536 for i in range(n)],
            is_load=[i % 3 != 0 for i in range(n)],
            gaps=[i % 7 for i in range(n)],
        )

        def old_style():
            system = MemorySystem(BASELINE, PAPER_MACHINE)
            addresses = t.addresses.tolist()
            is_load = t.is_load.tolist()
            gaps = t.gaps.tolist()
            for addr, load, gap in zip(addresses[:w], is_load[:w], gaps[:w]):
                system.access(addr, is_load=load, gap=gap)
            system.reset_measurement()
            for addr, load, gap in zip(addresses[w:], is_load[w:], gaps[w:]):
                system.access(addr, is_load=load, gap=gap)
            return system.finish()

        tracemalloc.start()
        reference = old_style()
        old_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        tracemalloc.start()
        fixed = simulate(t, BASELINE, warmup=w, engine="scalar")
        new_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert json.dumps(fixed.as_dict(), sort_keys=True) == json.dumps(
            reference.as_dict(), sort_keys=True
        )
        # One shed warmup slice = w pointers of 8 bytes; the real saving
        # is several times that, but any regression back to whole-column
        # slicing trips this comfortably.
        assert new_peak <= old_peak - 8 * w, (new_peak, old_peak)

    def test_simulate_policies_runs_each(self):
        t = trace([0x1000, 0x2000] * 5)
        out = simulate_policies(t, victim.table1_policies())
        assert set(out) == {
            "no V cache", "V cache", "filter swaps", "filter fills", "filter both"
        }

    def test_speedup_vs_baseline(self):
        # Sparse ping-pong (lots of compute between refs): buffer hits
        # beat 20-cycle L2 trips and the swap traffic stays uncontended.
        a, b = 0x100000, 0x100000 + L1_SIZE
        t = trace([a, b] * 200, gaps=[20] * 400)
        base = simulate(t, BASELINE)
        vc = simulate(t, victim.traditional())
        assert speedup(vc, base) > 1.02

    def test_swap_filter_wins_on_saturating_ping_pong(self):
        # Back-to-back conflict misses: every traditional victim hit swaps,
        # occupying bank and buffer — the exact pathology §5.1's
        # filter-swaps policy removes.
        a, b = 0x100000, 0x100000 + L1_SIZE
        t = trace([a, b] * 200, gaps=[2] * 400)
        trad = simulate(t, victim.traditional())
        noswap = simulate(t, victim.filter_swaps())
        assert noswap.timing.ipc > trad.timing.ipc
        assert noswap.buffer.swaps < trad.buffer.swaps

    def test_speedup_requires_finished_baseline(self):
        from repro.cache.stats import SystemStats

        with pytest.raises(ValueError):
            speedup(SystemStats(), SystemStats())


class TestMeans:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            geomean([])

    def test_empty_mean_message_explains_itself(self):
        # Regression: the bare "mean of no values" left readers to bisect
        # which figure filtered its rows away.
        with pytest.raises(ValueError, match="filtered down to nothing"):
            mean(v for v in [1.0, -2.0] if v > 5)

    def test_geomean_requires_positive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_zero_names_offending_benchmark(self):
        # Regression: the error must say WHICH value broke the average —
        # by benchmark name when names are given...
        with pytest.raises(
            ValueError, match=r"swim contributed 0\.0"
        ):
            geomean([1.3, 0.0, 1.1], names=["gcc", "swim", "tomcatv"])
        # ...and by position when they are not.
        with pytest.raises(ValueError, match=r"value #2 contributed -1\.5"):
            geomean([1.3, 1.1, -1.5])

    def test_geomean_names_length_checked(self):
        with pytest.raises(ValueError, match="2 values but 3 names"):
            geomean([1.0, 2.0], names=["a", "b", "c"])


class TestPacSystem:
    def test_rejects_associative_l1(self):
        from dataclasses import replace

        from repro.cache.geometry import CacheGeometry

        machine = replace(
            PAPER_MACHINE,
            l1=CacheGeometry(size=16 * 1024, assoc=2, line_size=64),
        )
        with pytest.raises(ValueError):
            PacMemorySystem(machine=machine)

    def test_secondary_hits_cost_more_than_primary(self):
        a, b = 0x100000, 0x100000 + L1_SIZE
        ping = trace([a, b] * 300, gaps=[2] * 600)
        pure_primary = trace([a] * 600, gaps=[2] * 600)
        slow = simulate_pac(ping, PacVariant.CLASSIC)
        fast = simulate_pac(pure_primary, PacVariant.CLASSIC)
        assert fast.timing.ipc > slow.timing.ipc

    def test_pac_beats_dm_on_ping_pong(self):
        a, b = 0x100000, 0x100000 + L1_SIZE
        t = trace([a, b] * 300, gaps=[2] * 600)
        dm = simulate(t, BASELINE)
        pac = simulate_pac(t, PacVariant.CLASSIC)
        assert pac.l1.miss_rate < dm.l1.miss_rate
        assert pac.timing.ipc > dm.timing.ipc

    def test_warmup_reset(self):
        t = trace([0x1000] * 10)
        stats = simulate_pac(t, warmup=5)
        assert stats.l1.accesses == 5
        assert stats.l1.hits == 5

    def test_memory_accesses_counted(self):
        t = trace([0x1000, 0x1000])
        stats = simulate_pac(t)
        assert stats.memory_accesses == 1
