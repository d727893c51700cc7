"""Counters shared by caches, buffers and the memory system.

Statistics objects are plain mutable dataclasses with derived-rate
properties.  Everything the paper reports — hit rates, swap/fill rates as a
percentage of all accesses, classification accuracy, miss-rate components —
is computed from these counters, so they are deliberately fine-grained.
Every one of them inherits :class:`Counters`, the single
``reset()``/``merge()`` implementation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, TypeVar

_C = TypeVar("_C", bound="Counters")


def _pct(part: int | float, whole: int | float) -> float:
    """``part / whole`` in percent, 0.0 when the denominator is zero."""
    return 100.0 * part / whole if whole else 0.0


@dataclass
class Counters:
    """Base of every statistics dataclass: one ``reset()``, one ``merge()``.

    Both walk :func:`dataclasses.fields`, so a counter added to a
    subclass is zeroed when warmup ends and summed into every rollup
    with no further code.  Nested ``Counters`` recurse, ``int`` and
    ``float`` fields are zeroed keeping their type (the fractional
    cycle counters of :class:`TimingStats` stay ``float``) or added,
    and any other field — a thread's name — is left alone.
    """

    def reset(self) -> None:
        """Zero every counter, recursing into nested ``Counters``."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counters):
                value.reset()
            elif isinstance(value, (int, float)):
                setattr(self, f.name, type(value)(0))

    def merge(self: _C, other: _C) -> None:
        """Accumulate another stats object of the same class into this one.

        Used by multi-thread / multi-shard rollups.  Merged
        :class:`SystemStats` no longer satisfy the single-run coupling
        laws (pass ``coupled=False`` to the invariant checker), but every
        per-object law still holds and no counter is dropped.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counters):
                value.merge(getattr(other, f.name))
            elif isinstance(value, (int, float)):
                setattr(self, f.name, value + getattr(other, f.name))


@dataclass
class CacheStats(Counters):
    """Per-cache-level counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits as a percentage of accesses."""
        return _pct(self.hits, self.accesses)

    @property
    def miss_rate(self) -> float:
        """Misses as a percentage of accesses."""
        return _pct(self.misses, self.accesses)


@dataclass
class BufferStats(Counters):
    """Assist-buffer counters (victim / prefetch / bypass / AMB).

    ``swaps`` and ``fills`` mirror Table 1 of the paper: a *swap* is a
    victim-buffer hit that exchanges lines with the data cache; a *fill* is
    a line written into the buffer on a data-cache miss.  Both are reported
    as a percentage of **all cache accesses**, so the denominator is
    injected by the caller (see :meth:`swap_rate`).
    """

    probes: int = 0
    hits: int = 0
    victim_hits: int = 0
    prefetch_hits: int = 0
    exclusion_hits: int = 0
    fills: int = 0
    swaps: int = 0
    evictions: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetches_wasted: int = 0
    prefetches_discarded: int = 0

    @property
    def hit_rate_of_probes(self) -> float:
        return _pct(self.hits, self.probes)

    def swap_rate(self, total_accesses: int) -> float:
        return _pct(self.swaps, total_accesses)

    def fill_rate(self, total_accesses: int) -> float:
        return _pct(self.fills, total_accesses)

    def hit_rate(self, total_accesses: int) -> float:
        """Buffer hits as a percentage of all cache accesses (Table 1 'V$ HR')."""
        return _pct(self.hits, total_accesses)


@dataclass
class ClassificationStats(Counters):
    """MCT outcome counters, split by the ground-truth class.

    ``predicted X, actual Y`` counters support the accuracy bars of
    Figures 1 and 2: *conflict accuracy* is the fraction of true conflict
    misses the MCT labels conflict, and symmetrically for capacity.
    """

    conflict_as_conflict: int = 0
    conflict_as_capacity: int = 0
    capacity_as_capacity: int = 0
    capacity_as_conflict: int = 0

    @property
    def true_conflicts(self) -> int:
        return self.conflict_as_conflict + self.conflict_as_capacity

    @property
    def true_capacities(self) -> int:
        return self.capacity_as_capacity + self.capacity_as_conflict

    @property
    def total(self) -> int:
        return self.true_conflicts + self.true_capacities

    @property
    def conflict_accuracy(self) -> float:
        """% of true conflict misses the MCT classified as conflict."""
        return _pct(self.conflict_as_conflict, self.true_conflicts)

    @property
    def capacity_accuracy(self) -> float:
        """% of true capacity misses the MCT classified as capacity."""
        return _pct(self.capacity_as_capacity, self.true_capacities)

    @property
    def overall_accuracy(self) -> float:
        """% of all misses classified correctly."""
        return _pct(self.conflict_as_conflict + self.capacity_as_capacity, self.total)

    def record(self, *, predicted_conflict: bool, actual_conflict: bool) -> None:
        if actual_conflict:
            if predicted_conflict:
                self.conflict_as_conflict += 1
            else:
                self.conflict_as_capacity += 1
        else:
            if predicted_conflict:
                self.capacity_as_conflict += 1
            else:
                self.capacity_as_capacity += 1


@dataclass
class TimingStats(Counters):
    """Cycle-accounting output of the timing model.

    Cycles and stalls sum under :meth:`~Counters.merge`, so the merged
    IPC is the throughput of the combined runs — the right
    convention when rolling up per-thread or per-shard runs executed
    back to back.
    """

    # Cycle counters are genuinely fractional: bus/bank contention is
    # accounted at sub-cycle resolution, and they only ever cross the
    # obs layer in the final delta (published at finish()), so replay
    # reconciliation stays exact despite the floats.
    cycles: float = 0.0
    instructions: int = 0
    memory_refs: int = 0
    stall_cycles: float = 0.0
    contention_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SystemStats(Counters):
    """Everything a full simulation run produces."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    buffer: BufferStats = field(default_factory=BufferStats)
    timing: TimingStats = field(default_factory=TimingStats)
    memory_accesses: int = 0
    conflict_misses_predicted: int = 0
    capacity_misses_predicted: int = 0

    @property
    def total_hit_rate(self) -> float:
        """L1 hits plus buffer hits, as a percentage of L1 accesses.

        This is the "Total" column of Table 1.
        """
        return _pct(self.l1.hits + self.buffer.hits, self.l1.accesses)

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict snapshot of every counter.

        Used by the invariant checker's diagnostics and by debug dumps;
        contains raw counters only (derived rates are properties).
        It is also the counter schema of the observability layer: the
        ``counters`` events in ``events.jsonl`` are flattened deltas of
        exactly this structure (see :mod:`repro.obs.metrics`).
        """
        return asdict(self)
