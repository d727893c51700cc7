"""Tyson et al.'s PC-indexed cache-exclusion predictor.

Section 5.3's other prior-work comparator: "Tyson uses a table, indexed by
program counter, to track hit/miss frequency, and excludes from the cache
accesses predicted to miss with high likelihood" (Tyson, Farrens,
Matthews & Pleszkun, MICRO-28 1995).  The paper models only Johnson &
Hwu's MAT, noting both schemes "require tables that are updated on every
access"; with per-reference PCs available in our traces we can include
the Tyson predictor as well.

Mechanics: a direct-mapped, tagged table of 2-bit saturating counters per
load PC.  Every access updates its PC's counter toward "misses" on a
cache miss and toward "hits" on a hit; a load whose counter is saturated
at the miss end is predicted to keep missing, and its line bypasses the
cache into the assist buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.workloads.trace import Trace


@dataclass
class _TysonEntry:
    tag: int = -1
    count: int = 0  # 0 = strongly hits ... max = strongly misses


class TysonPredictor:
    """Per-PC hit/miss frequency table with bypass prediction."""

    def __init__(
        self, entries: int = 1024, max_count: int = 3, threshold: int = 3
    ) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if not 1 <= threshold <= max_count:
            raise ValueError("need 1 <= threshold <= max_count")
        self.entries = entries
        self.max_count = max_count
        self.threshold = threshold
        self._table: List[_TysonEntry] = [_TysonEntry() for _ in range(entries)]
        self.updates = 0

    def _slot(self, pc: int) -> _TysonEntry:
        return self._table[(pc >> 2) & (self.entries - 1)]

    def record(self, pc: int, *, hit: bool) -> None:
        """Update the PC's counter with one access outcome."""
        self.updates += 1
        entry = self._slot(pc)
        if entry.tag != pc:
            entry.tag = pc
            entry.count = 0
        if hit:
            if entry.count > 0:
                entry.count -= 1
        elif entry.count < self.max_count:
            entry.count += 1

    def should_bypass(self, pc: int) -> bool:
        """True when this load is predicted to keep missing."""
        entry = self._slot(pc)
        return entry.tag == pc and entry.count >= self.threshold


@dataclass
class TysonResult:
    """Hit rates of a Tyson-filtered cache + bypass buffer run."""

    d_hit_rate: float
    buffer_hit_rate: float
    bypasses: int

    @property
    def total_hit_rate(self) -> float:
        return self.d_hit_rate + self.buffer_hit_rate


def simulate_tyson(
    trace: Trace,
    geometry: CacheGeometry,
    *,
    buffer_entries: int = 16,
) -> TysonResult:
    """Functional (no-timing) run of Tyson-style exclusion on one trace.

    Misses from bypass-predicted PCs go into a small FIFO bypass buffer
    instead of the cache, mirroring the §5.3 experimental setup.
    """
    from collections import OrderedDict

    predictor = TysonPredictor()
    cache = SetAssociativeCache(geometry)
    buffer: "OrderedDict[int, None]" = OrderedDict()
    accesses = hits = buffer_hits = bypasses = 0

    for addr, pc in zip(trace.addresses, trace.pcs):
        addr, pc = int(addr), int(pc)
        accesses += 1
        out = cache.lookup(addr)
        if out.hit:
            hits += 1
            predictor.record(pc, hit=True)
            continue
        block = geometry.block_number(addr)
        if block in buffer:
            buffer_hits += 1
            buffer.move_to_end(block)
            predictor.record(pc, hit=True)  # served without a memory trip
            continue
        predictor.record(pc, hit=False)
        if predictor.should_bypass(pc):
            bypasses += 1
            if len(buffer) >= buffer_entries:
                buffer.popitem(last=False)
            buffer[block] = None
        else:
            cache.fill(addr)

    return TysonResult(
        d_hit_rate=100.0 * hits / accesses if accesses else 0.0,
        buffer_hit_rate=100.0 * buffer_hits / accesses if accesses else 0.0,
        bypasses=bypasses,
    )
