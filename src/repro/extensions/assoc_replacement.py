"""MCT-biased replacement for highly-associative caches (§5.6).

"Many real workloads will still experience conflict misses with 4-way or
higher-associative caches... the cache may benefit from using miss
classification as part of the cache line replacement algorithm.  For
example, a bias against capacity misses will ensure that accesses that
stride through memory (characterized by a capacity miss followed by a
short burst of activity) will move out of the cache set quickly once they
are no longer being used.  This is the same application suggested by
Stone and Pomerene."

Implementation: lines filled on MCT-identified *capacity* misses leave
their conflict bit clear; the replacement policy prefers evicting such
lines (LRU among them), falling back to plain LRU when the whole set is
conflict-marked.  To keep the reprieve one-time, consuming a clear-bit
victim is exactly the demotion the paper's pseudo-associative variant
applies — here the bias is purely at eviction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.cache.replacement import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.mct import MissClassificationTable
from repro.system.vector import l1_pass
from repro.workloads.trace import Trace


class ConflictBiasedReplacement(ReplacementPolicy):
    """Prefer evicting lines that entered on capacity misses.

    Among the valid lines of a set, candidates without the conflict bit
    are evicted first (LRU order among them); when every line carries the
    bit, plain LRU decides and — matching §5.4's one-reprieve rule — the
    chosen victim's peers keep their bits.
    """

    def choose_victim(self, lines: Sequence[CacheLine]) -> int:
        empty = self.first_invalid(lines)
        if empty is not None:
            return empty
        capacity_ways = [w for w, l in enumerate(lines) if not l.conflict_bit]
        pool = capacity_ways if capacity_ways else range(len(lines))
        return min(pool, key=lambda w: lines[w].last_touch)


@dataclass(frozen=True)
class AssocReplacementResult:
    """Miss rates of plain-LRU vs conflict-biased replacement."""

    geometry: CacheGeometry
    lru_miss_rate: float
    biased_miss_rate: float

    @property
    def improvement(self) -> float:
        """Absolute miss-rate reduction in percentage points."""
        return self.lru_miss_rate - self.biased_miss_rate


def conflict_biased_miss_rate(trace: Trace, geometry: CacheGeometry) -> float:
    """Miss rate under :class:`ConflictBiasedReplacement`, reference by reference.

    Each fill's conflict bit is the MCT's verdict on that miss, so this
    arm needs the scalar cache; plain LRU is one vector L1 pass.
    """
    mct = MissClassificationTable(geometry)
    cache = SetAssociativeCache(
        geometry, policy=ConflictBiasedReplacement(), on_evict=mct.on_evict
    )
    for addr in trace.addresses.tolist():
        out = cache.lookup(addr)
        if not out.hit:
            is_conflict = mct.classify_is_conflict(addr)
            cache.fill(addr, conflict_bit=is_conflict)
    return cache.stats.miss_rate


def compare_assoc_replacement(
    trace: Trace, geometry: CacheGeometry
) -> AssocReplacementResult:
    """Miss rate of plain LRU vs the conflict-biased policy on one trace.

    Use an associativity of 4 or more — at low associativity LRU already
    separates streaming lines from resident ones and the bias has little
    room (which is itself the §5.6 observation about when this helps).
    """
    hit = l1_pass(trace.addresses >> geometry.offset_bits, None, geometry, None)[0]
    lru = CacheStats(accesses=len(trace), misses=int(np.count_nonzero(~hit)))
    return AssocReplacementResult(
        geometry=geometry,
        lru_miss_rate=lru.miss_rate,
        biased_miss_rate=conflict_biased_miss_rate(trace, geometry),
    )
