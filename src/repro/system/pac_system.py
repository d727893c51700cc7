"""Memory system built around a pseudo-associative L1 (§5.4 support).

The pseudo-associative experiments need timing like the assist-buffer
experiments, but the L1 is a :class:`~repro.cache.pseudo_assoc.PseudoAssociativeCache`
and there is no assist buffer: a secondary hit costs extra cycles and a
line swap; misses go to the shared L2/memory model.
"""

from __future__ import annotations

from repro.cache.pseudo_assoc import PacHit, PacVariant, PseudoAssociativeCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import SystemStats
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.simulator import drive
from repro.system.timing import TimingModel
from repro.workloads.trace import Trace

#: Extra cycles for a hit in the rehash (secondary) location.
SECONDARY_HIT_PENALTY = 2.0


class PacMemorySystem:
    """Pseudo-associative L1 + L2 + memory, with cycle accounting."""

    def __init__(
        self,
        variant: PacVariant = PacVariant.LRU,
        machine: MachineConfig = PAPER_MACHINE,
    ) -> None:
        if machine.l1.assoc != 1:
            raise ValueError("the pseudo-associative L1 must be direct-mapped")
        self.machine = machine
        self.variant = variant
        self.l1 = PseudoAssociativeCache(machine.l1, variant)
        self.l2 = SetAssociativeCache(machine.l2, name="L2")
        self.timing = TimingModel(machine.timing)
        self.stats = SystemStats()
        self.stats.l1 = self.l1.stats
        self.stats.l2 = self.l2.stats

    def access(self, addr: int, *, is_load: bool = True, gap: int = 3) -> None:
        t = self.machine.timing
        self.timing.step(gap)
        outcome = self.l1.access(addr)
        if outcome.kind is PacHit.PRIMARY:
            return
        if outcome.kind is PacHit.SECONDARY:
            # Longer hit time plus a swap occupying the bank.
            bank = self.machine.l1.set_index(addr) % t.n_banks
            self.timing.occupy_bank(bank, t.swap_busy_cycles)
            self.timing.note_short_op(
                self.timing.clock + t.l1_latency + SECONDARY_HIT_PENALTY
            )
            return
        # Miss: classified by its primary slot's MCT, fetched through L2/memory.
        if outcome.conflict_bit:
            self.stats.conflict_misses_predicted += 1
        else:
            self.stats.capacity_misses_predicted += 1
        l2_outcome = self.l2.access(addr)
        latency = float(t.l2_latency if l2_outcome.hit else t.memory_latency)
        if not l2_outcome.hit:
            self.stats.memory_accesses += 1
        bus_start = self.timing.acquire_bus(self.timing.clock)
        self.timing.issue_miss(latency, start=bus_start)

    def reset_measurement(self) -> None:
        """Zero every statistic and the cycle clock, keeping the caches warm."""
        self.stats.reset()  # holds the L1's and L2's own counter objects
        self.l1.primary_hits = 0
        self.l1.secondary_hits = 0
        self.timing.reset_measurement()

    def finish(self) -> SystemStats:
        """Drain the pipeline; validate the statistics as ``MemorySystem`` does."""
        self.stats.timing = self.timing.finish()
        from repro.harness.invariants import check_system_stats

        check_system_stats(self.stats, issue_rate=self.machine.timing.issue_rate)
        return self.stats


def simulate_pac(
    trace: Trace,
    variant: PacVariant = PacVariant.LRU,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
) -> SystemStats:
    """Run a trace through a pseudo-associative memory system.

    ``warmup`` must leave at least one reference to measure, as in
    :func:`~repro.system.simulator.simulate`.
    """
    system = PacMemorySystem(variant, machine)
    return drive(system, trace, policy=f"pac[{variant.value}]", warmup=warmup)
