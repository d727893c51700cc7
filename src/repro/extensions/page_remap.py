"""Conflict-filtered dynamic page remapping (§5.6 "Runtime conflict avoidance").

Bershad et al.'s Cache Miss Lookaside buffer counts cache misses by page;
when two pages that map to the same region of a large direct-mapped cache
both miss heavily, the OS recolours one of them (changes its
virtual-to-physical mapping) to a different cache region.

The paper's observation: "Miss classification would allow this technique
to only count conflict misses.  Reallocation could be avoided when the
majority of misses are capacity misses (in which case reallocation
typically would not help)."

This module simulates the scheme with a software remap table:

* pages are ``page_size`` regions; a page's *colour* is the field of the
  address that selects which cache region it occupies;
* a miss counter per page (all misses, or MCT-conflict misses only);
* when a page's counter passes ``threshold``, the page is remapped to the
  currently least-loaded colour (load = remapped pages per colour), the
  counter resets, and a remap is charged (each remap costs a page copy —
  the expensive part the conflict filter avoids wasting).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import Counters
from repro.core.mct import MissClassificationTable
from repro.workloads.trace import Trace


class RemapPolicy(Enum):
    """What the per-page miss counters count."""

    NONE = "none"                  # baseline: no remapping
    ALL_MISSES = "all-misses"      # Bershad et al.: every miss counts
    CONFLICT_ONLY = "conflict-only"  # §5.6: count MCT conflict misses only


@dataclass
class RemapStats(Counters):
    """Outcome of one remapping run."""

    policy: RemapPolicy
    accesses: int = 0
    misses: int = 0
    remaps: int = 0

    @property
    def miss_rate(self) -> float:
        return 100.0 * self.misses / self.accesses if self.accesses else 0.0


class PageRemapper:
    """OS-level page recolouring driven by per-page miss counts."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: RemapPolicy,
        page_size: int = 4096,
        threshold: int = 64,
    ) -> None:
        if page_size % geometry.line_size:
            raise ValueError("page_size must be a multiple of the line size")
        if geometry.size % page_size:
            raise ValueError("cache size must be a multiple of page_size")
        self.geometry = geometry
        self.policy = policy
        self.page_size = page_size
        self.threshold = threshold
        self.n_colours = geometry.size // (page_size * geometry.assoc)
        self._page_shift = page_size.bit_length() - 1
        self._colour_of: Dict[int, int] = {}       # page -> assigned colour
        self._counters: Dict[int, int] = defaultdict(int)
        self._colour_load: Counter[int] = Counter()
        self.remaps = 0

    # ------------------------------------------------------------------
    def translate(self, addr: int) -> int:
        """Apply the current virtual-to-physical colour mapping."""
        page = addr >> self._page_shift
        colour = self._colour_of.get(page)
        if colour is None:
            return addr
        offset = addr & (self.page_size - 1)
        # Replace the colour bits (the low bits of the page frame number
        # that land in the cache index) with the assigned colour.
        frame = page & ~(self.n_colours - 1) | colour
        return (frame << self._page_shift) | offset

    def note_miss(self, addr: int, is_conflict: bool) -> None:
        """Count one miss; remap the page if it crossed the threshold."""
        if self.policy is RemapPolicy.NONE:
            return
        if self.policy is RemapPolicy.CONFLICT_ONLY and not is_conflict:
            return
        page = addr >> self._page_shift
        self._counters[page] += 1
        if self._counters[page] < self.threshold:
            return
        self._counters[page] = 0
        self._remap(page)

    def _remap(self, page: int) -> None:
        old = self._colour_of.get(page, page & (self.n_colours - 1))
        # Least-loaded colour, avoiding the page's current colour on ties.
        target = min(
            range(self.n_colours),
            key=lambda c: (self._colour_load[c], c == old, c),
        )
        if target == old:
            return
        if self._colour_of.get(page) is not None:
            self._colour_load[old] -= 1
        self._colour_of[page] = target
        self._colour_load[target] += 1
        self.remaps += 1


def simulate_remap(
    trace: Trace,
    geometry: CacheGeometry,
    policy: RemapPolicy,
    *,
    page_size: int = 4096,
    threshold: int = 64,
) -> RemapStats:
    """Run one trace under a remapping policy; returns miss/remap counts.

    The cache is flushed of a remapped page implicitly: recolouring
    changes the page's physical addresses, so its old lines simply stop
    being referenced (a conservative model — a real kernel would also pay
    a copy cost, which is why spurious remaps matter).
    """
    remapper = PageRemapper(geometry, policy, page_size, threshold)
    mct = MissClassificationTable(geometry)
    cache = SetAssociativeCache(geometry, on_evict=mct.on_evict)
    stats = RemapStats(policy=policy)

    for addr in trace.addresses:
        addr = int(addr)
        phys = remapper.translate(addr)
        stats.accesses += 1
        out = cache.lookup(phys)
        if out.hit:
            continue
        stats.misses += 1
        is_conflict = mct.classify_is_conflict(phys)
        cache.fill(phys, conflict_bit=is_conflict)
        remapper.note_miss(addr, is_conflict)

    stats.remaps = remapper.remaps
    return stats
