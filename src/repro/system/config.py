"""Machine configuration — the paper's simulated processor as defaults.

Section 4 of the paper: an 8-issue out-of-order processor (SMTSIM) with a
7-stage pipeline, two 32-entry instruction queues and four load/store
units; a 16KB direct-mapped L1 data cache (8-way banked, 64-byte lines),
a 1MB 2-way L2 at 20 cycles, and main memory at 100 cycles from the CPU
(both in the absence of contention); non-blocking caches with up to 16
misses in flight, prefetches discarded beyond that; an 8-entry
fully-associative assist buffer (2 read + 2 write ports, one-cycle data,
line moves take a port for two cycles).

Our SMTSIM substitution is a cycle-accounting model (see
:mod:`repro.system.timing`); its out-of-order latency tolerance is the
``rob_window`` — how many instructions the core can slide past an
outstanding miss before retirement stalls, sized from the paper's two
32-entry queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.geometry import CacheGeometry


@dataclass(frozen=True)
class TimingConfig:
    """Cycle-accounting parameters (the SMTSIM stand-in)."""

    width: int = 8                 # fetch/issue width (the paper's machine)
    issue_rate: float = 3.0        # sustained instructions/cycle on clean code;
                                   # an 8-wide OoO core averages ~3 IPC on
                                   # SPEC95 once dependences and branches bite
    rob_window: int = 32           # instructions a miss may slide past before
                                   # retirement stalls (one 32-entry IQ); at
                                   # issue_rate 3 this hides ~10 cycles, so an
                                   # L2 hit exposes about half its 20-cycle
                                   # latency and a memory trip nearly all
    mshrs: int = 16                # outstanding misses (paper: 16 in flight)
    l1_latency: int = 1
    buffer_latency: int = 2        # L1 miss + 1 extra cycle (paper Section 4)
    l2_latency: int = 20           # from the processor, uncontended
    memory_latency: int = 120      # L2 miss: 100 cycles beyond the L2 trip
    bus_transfer_cycles: int = 1   # L1<->L2 bus occupancy per 64B line; the
                                   # paper's main machine has enough bandwidth
                                   # that prefetch waste is (almost) free
    n_banks: int = 8               # L1 multi-ported via 8-way banking
    bank_busy_cycles: int = 1      # bank occupancy of a normal access
    swap_busy_cycles: int = 2      # a line swap holds bank and buffer 2 cycles
    buffer_busy_cycles: int = 1    # buffer port occupancy of a probe/word read

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if not 0 < self.issue_rate <= self.width:
            raise ValueError("issue_rate must be in (0, width]")
        if self.mshrs < 1:
            raise ValueError("mshrs must be >= 1")
        if self.n_banks < 1:
            raise ValueError("n_banks must be >= 1")
        # Zero is legal: an ablation may make swaps free.
        for name in (
            "rob_window",
            "l1_latency",
            "buffer_latency",
            "l2_latency",
            "memory_latency",
            "bus_transfer_cycles",
            "bank_busy_cycles",
            "swap_busy_cycles",
            "buffer_busy_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.memory_latency < self.l2_latency:
            raise ValueError("memory_latency must include the L2 trip")

    def with_slow_bus(self, cycles: int = 8) -> "TimingConfig":
        """The slower L1-L2 bus variant used for Figure 4's speedups.

        The paper notes prefetch speedups were measured "for a system with
        a slower memory bus (between the L1 and L2 caches) than modeled in
        the rest of the paper".
        """
        return replace(self, bus_transfer_cycles=cycles)


@dataclass(frozen=True)
class MachineConfig:
    """Full machine: cache geometries plus timing."""

    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size=1 << 20, assoc=2, line_size=64)
    )
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        if self.l1.line_size != self.l2.line_size:
            raise ValueError("L1 and L2 must share a line size")
        if self.l2.size < self.l1.size:
            raise ValueError("L2 must be at least as large as L1")


#: The configuration used by every Section-5 experiment.
PAPER_MACHINE = MachineConfig()

#: Figure 4's machine: identical but with a slow L1-L2 bus.
SLOW_BUS_MACHINE = MachineConfig(timing=TimingConfig().with_slow_bus())
