"""Pseudo-associative (column-associative) cache with MCT-biased eviction.

Section 5.4 of the paper.  A pseudo-associative cache [Agarwal & Pudar]
is a direct-mapped array in which each set has a *secondary* location —
the set whose index differs in the top index bit.  A primary hit costs the
usual one cycle; a secondary hit costs extra and triggers a swap of the
two locations; a miss picks its victim among the two candidate slots.

The paper's modification uses the Miss Classification Table plus per-line
conflict bits to bias that choice:

* the MCT entry at slot ``s`` holds the tag of the line most recently
  evicted from ``s``, *even if the line was sitting in its secondary
  position*;
* a new line's conflict bit is set only if it matches the MCT entry of its
  **primary** slot;
* on an eviction decision, if *exactly one* of the two candidates has its
  conflict bit set, the other is evicted and the survivor's bit is
  cleared (a one-time reprieve); if both are set, ordinary LRU decides and
  the kept line's bit is not cleared.

The paper reports this improves the pseudo-associative cache by 1.5% on
average (up to 7%), landing within 0.9% of a true 2-way cache, with
tomcatv/turb3d/wave5 actually beating 2-way; average miss rate improves
from 10.22% to 9.83%.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.cache.stats import CacheStats


class PacVariant(Enum):
    """Eviction policy of the pseudo-associative cache.

    ``CLASSIC`` is Agarwal & Pudar's column-associative scheme: on a miss
    the new line takes the primary slot, the old primary is demoted to the
    rehash slot, and the rehash slot's occupant is evicted.  ``LRU``
    replaces the demotion rule with true LRU between the two slots (this
    makes the cache content-equivalent to a 2-way set-associative cache —
    included as the upper bound).  ``MCT`` is §5.4: the conflict-bit
    reprieve first, LRU as the tiebreak.
    """

    CLASSIC = "classic"  # new line wins primary; rehash occupant evicted
    LRU = "lru"          # evict the older of the two candidates
    MCT = "mct"          # §5.4: conflict-bit bias, LRU tiebreak


class PacHit(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    MISS = "miss"


@dataclass(frozen=True)
class PacResult:
    """Outcome of one pseudo-associative access.  On a miss,
    ``conflict_bit`` is the primary slot's MCT verdict on the new line."""

    kind: PacHit
    swapped: bool = False
    evicted_block: Optional[int] = None
    conflict_bit: bool = False


class PseudoAssociativeCache:
    """Direct-mapped cache with a rehash (column-associative) backup slot.

    Lines are tracked by full block number (stored in ``CacheLine.tag``) so
    a line is unambiguous whether it sits in its primary or secondary slot.

    The embedded MCT is a plain per-slot evicted-block store rather than a
    :class:`~repro.core.mct.MissClassificationTable` because §5.4 indexes
    it by *slot* (where the eviction happened), not by the missing
    address's set — the semantics differ enough to warrant its own little
    table here.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        variant: PacVariant = PacVariant.CLASSIC,
    ) -> None:
        if geometry.assoc != 1:
            raise ValueError("a pseudo-associative cache is direct-mapped")
        if geometry.num_sets < 2:
            raise ValueError("need at least two sets for a rehash location")
        self.geometry = geometry
        self.variant = variant
        self.stats = CacheStats()
        self.primary_hits = 0
        self.secondary_hits = 0
        self._slots = [CacheLine() for _ in range(geometry.num_sets)]
        # §5.4 MCT: most recently evicted block per slot.
        self._evicted_from: list[Optional[int]] = [None] * geometry.num_sets
        self._rehash_mask = geometry.num_sets >> 1
        self._now = 0

    # ------------------------------------------------------------------
    def primary_index(self, addr: int) -> int:
        return self.geometry.set_index(addr)

    def secondary_index(self, addr: int) -> int:
        """The rehash slot: primary index with its top bit flipped."""
        return self.geometry.set_index(addr) ^ self._rehash_mask

    # ------------------------------------------------------------------
    def access(self, addr: int) -> PacResult:
        """Reference ``addr``; fills on miss per the configured variant."""
        self._now += 1
        self.stats.accesses += 1
        block = self.geometry.block_number(addr)
        pi = self.primary_index(addr)
        si = self.secondary_index(addr)
        p_line, s_line = self._slots[pi], self._slots[si]

        if p_line.valid and p_line.tag == block:
            p_line.touch(self._now)
            self.stats.hits += 1
            self.primary_hits += 1
            return PacResult(PacHit.PRIMARY)

        if s_line.valid and s_line.tag == block:
            # Secondary hit: swap the two slots so the hot line moves to
            # its primary position (classic column-associative behaviour).
            s_line.touch(self._now)
            self.stats.hits += 1
            self.secondary_hits += 1
            self._slots[pi], self._slots[si] = s_line, p_line
            return PacResult(PacHit.SECONDARY, swapped=True)

        self.stats.misses += 1
        return self._fill_miss(block, pi, si)

    # ------------------------------------------------------------------
    def _fill_miss(self, block: int, pi: int, si: int) -> PacResult:
        """Install ``block`` at its primary slot, evicting per variant."""
        p_line, s_line = self._slots[pi], self._slots[si]

        # New line's conflict bit: set only on a match against the MCT
        # entry of its *primary* location (§5.4).  Tracked for every
        # variant (it is one bit); only the MCT variant acts on it.
        conflict_bit = self._evicted_from[pi] == block

        # Choose the victim among the two candidate slots.
        if not p_line.valid:
            victim_index = pi
        elif not s_line.valid:
            victim_index = si
        else:
            victim_index = self._choose_victim(pi, si)

        evicted_block: Optional[int] = None
        victim_line = self._slots[victim_index]
        if victim_line.valid:
            evicted_block = victim_line.tag
            self._evicted_from[victim_index] = evicted_block
            self.stats.evictions += 1

        if victim_index == si:
            # The survivor keeps the primary slot's content? No: the new
            # line must live at its primary slot, so the current primary
            # occupant (the survivor) moves to the secondary slot.
            self._slots[si] = self._slots[pi]
            self._slots[pi] = victim_line  # reuse the evicted slot object
            self._slots[pi].invalidate()

        new_line = self._slots[pi]
        new_line.fill(block, self._now, conflict_bit=conflict_bit)
        self.stats.fills += 1
        return PacResult(
            PacHit.MISS, evicted_block=evicted_block, conflict_bit=conflict_bit
        )

    def _choose_victim(self, pi: int, si: int) -> int:
        p_line, s_line = self._slots[pi], self._slots[si]
        if self.variant is PacVariant.CLASSIC:
            # Column-associative demotion: the rehash slot's occupant dies.
            return si
        if self.variant is PacVariant.MCT:
            if p_line.conflict_bit and not s_line.conflict_bit:
                # Keep the conflict-marked primary (one reprieve).
                p_line.conflict_bit = False
                return si
            if s_line.conflict_bit and not p_line.conflict_bit:
                s_line.conflict_bit = False
                return pi
            # Both or neither marked: fall through to LRU, bits untouched.
        return pi if p_line.last_touch <= s_line.last_touch else si

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> PacHit:
        """Non-mutating lookup: where would ``addr`` hit right now?"""
        block = self.geometry.block_number(addr)
        if (line := self._slots[self.primary_index(addr)]).valid and line.tag == block:
            return PacHit.PRIMARY
        if (line := self._slots[self.secondary_index(addr)]).valid and line.tag == block:
            return PacHit.SECONDARY
        return PacHit.MISS

    def occupancy(self) -> int:
        return sum(1 for line in self._slots if line.valid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PseudoAssociativeCache {self.geometry.describe()} "
            f"variant={self.variant.value}>"
        )
