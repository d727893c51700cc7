"""Shared-cache multithreading (§5.6 "Multithreaded architectures").

"Multithreaded processors, or other architectures that allow multiple
threads to dynamically share a cache, are particularly prone to high
levels of conflict, even with associative caches.  In addition, this
problem cannot be solved with software techniques because the conflicts
are produced by competition with other threads.  All of the techniques
described in this paper would apply to an even greater extent with
multithreaded caches."

This module runs several workload "threads" through ONE shared
:class:`~repro.system.memory_system.MemorySystem` (fine-grain round-robin
issue, SMT-style: :func:`~repro.workloads.trace.merge_round_robin`
interleaves the traces, and the simulator's one driver measures the
merged stream) and reports per-thread statistics next to the shared
totals, plus the *sharing penalty* — each thread's shared-mode miss rate
against its solo run on the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import List, Sequence

from repro.cache.stats import Counters, SystemStats
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.memory_system import MemorySystem
from repro.system.policies import AssistConfig, BASELINE
from repro.system.simulator import drive, simulate
from repro.workloads.trace import Trace, merge_round_robin


@dataclass
class ThreadStats(Counters):
    """Per-thread view of a shared-cache run (``reset()`` keeps the name)."""

    name: str
    accesses: int = 0
    l1_hits: int = 0
    buffer_hits: int = 0
    misses: int = 0                 # L1 misses (buffer hits included)
    conflict_misses: int = 0        # MCT-classified conflicts

    @property
    def miss_rate(self) -> float:
        """L1 misses not covered by the assist buffer, % of accesses."""
        uncovered = self.misses - self.buffer_hits
        return 100.0 * uncovered / self.accesses if self.accesses else 0.0


@dataclass
class SharedRunResult:
    """Everything one shared run produces."""

    threads: List[ThreadStats]
    combined: SystemStats

    def thread(self, name: str) -> ThreadStats:
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(f"no thread named {name!r}")


class _SharedSystem(MemorySystem):
    """Charges merged reference ``j`` to thread ``j % k``, the order
    :func:`~repro.workloads.trace.merge_round_robin` interleaves in."""

    def __init__(
        self, policy: AssistConfig, machine: MachineConfig, threads: List[ThreadStats]
    ) -> None:
        super().__init__(policy, machine)
        self.threads = threads
        self._turn = cycle(threads)

    def access(self, addr: int, *, is_load: bool = True, gap: int = 3) -> None:
        stats = self.stats
        hits = stats.l1.hits
        buffer_hits = stats.buffer.hits
        conflicts = stats.conflict_misses_predicted
        super().access(addr, is_load=is_load, gap=gap)
        thread = next(self._turn)
        thread.accesses += 1
        if stats.l1.hits > hits:
            thread.l1_hits += 1
            return
        thread.misses += 1
        thread.buffer_hits += stats.buffer.hits - buffer_hits
        thread.conflict_misses += stats.conflict_misses_predicted - conflicts

    def reset_measurement(self) -> None:
        super().reset_measurement()
        for thread in self.threads:
            thread.reset()


def simulate_shared(
    traces: Sequence[Trace],
    policy: AssistConfig = BASELINE,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup_fraction: float = 0.0,
) -> SharedRunResult:
    """Run several threads round-robin through one shared memory system.

    Round-robin at reference granularity is SMT's fine-grain interleaving
    — the worst case for cross-thread cache conflicts.  Thread traces are
    truncated to the shortest; ``warmup_fraction`` of the interleaved
    stream warms the system before measurement starts, and must leave
    at least one reference to measure, as in
    :func:`~repro.system.simulator.simulate`.
    """
    if not traces:
        raise ValueError("need at least one thread")
    if len({t.name for t in traces}) != len(traces):
        raise ValueError("thread (trace) names must be unique")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    merged = merge_round_robin(list(traces), name="+".join(t.name for t in traces))
    threads = [ThreadStats(name=t.name) for t in traces]
    system = _SharedSystem(policy, machine, threads)
    warmup = int(len(merged) * warmup_fraction)
    combined = drive(system, merged, policy=policy.name, warmup=warmup)
    return SharedRunResult(threads=threads, combined=combined)


@dataclass(frozen=True)
class SharingPenalty:
    """Solo vs shared miss rates for one thread."""

    name: str
    solo_miss_rate: float
    shared_miss_rate: float

    @property
    def penalty(self) -> float:
        """Extra uncovered misses per 100 accesses caused by sharing."""
        return self.shared_miss_rate - self.solo_miss_rate


def sharing_penalties(
    traces: Sequence[Trace],
    shared: SharedRunResult,
    policy: AssistConfig = BASELINE,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup_fraction: float = 0.25,
) -> List[SharingPenalty]:
    """Each thread's shared-cache miss rate against its solo run.

    ``shared`` is the caller's ``simulate_shared(traces, policy, machine,
    warmup_fraction=warmup_fraction)``.  Solo runs use the same
    per-thread reference count and warmup fraction so the comparison is
    apples-to-apples.
    """
    n = min(len(t) for t in traces)
    out: List[SharingPenalty] = []
    for trace in traces:
        clipped = trace[:n]
        solo = simulate(
            clipped, policy, machine, warmup=int(n * warmup_fraction)
        )
        solo_uncovered = solo.l1.misses - solo.buffer.hits
        solo_rate = 100.0 * solo_uncovered / solo.l1.accesses
        out.append(
            SharingPenalty(
                name=trace.name,
                solo_miss_rate=solo_rate,
                shared_miss_rate=shared.thread(trace.name).miss_rate,
            )
        )
    return out
