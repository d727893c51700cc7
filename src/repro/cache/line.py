"""Cache line (block) state.

A :class:`CacheLine` carries the metadata the paper's mechanisms need:

* the usual valid/dirty/tag state,
* the **conflict bit** from Section 3 of the paper — one extra bit per
  cache line that remembers whether the line originally entered the cache
  on a conflict miss.  The conflict bit is what makes the *in-conflict*,
  *and-conflict* and *or-conflict* filters possible, and it drives the
  pseudo-associative replacement bias of Section 5.4,
* a free-form ``role`` tag used by the Adaptive Miss Buffer (Section 5.5),
  which must "remember how a cache line entered the buffer".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class BufferRole(Enum):
    """How a line entered an assist buffer (AMB Section 5.5).

    The AMB treats a buffer hit differently depending on whether the line
    was placed as a victim, a prefetch, or an excluded (bypass) line; lines
    may also *transition* between roles on a hit.
    """

    VICTIM = "victim"
    PREFETCH = "prefetch"
    EXCLUSION = "exclusion"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class CacheLine:
    """Mutable per-line metadata.

    Attributes
    ----------
    tag:
        Tag of the resident line (meaningless when ``valid`` is False).
    valid:
        Whether the line holds data.
    dirty:
        Whether the line has been written since it was filled.
    conflict_bit:
        The paper's per-line conflict bit: True iff the line entered the
        cache on a miss the MCT classified as a conflict miss.
    role:
        For assist buffers only — how the line entered the buffer.
    last_touch:
        Logical timestamp of the most recent access (LRU bookkeeping).
    fill_time:
        Logical timestamp of the fill (FIFO bookkeeping).
    secondary:
        For the pseudo-associative cache — True when the line currently
        lives in its rehash (secondary) location.
    """

    tag: int = 0
    valid: bool = False
    dirty: bool = False
    conflict_bit: bool = False
    role: BufferRole | None = None
    last_touch: int = -1
    fill_time: int = -1
    secondary: bool = False

    def invalidate(self) -> None:
        """Reset to the empty state (all metadata cleared)."""
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.conflict_bit = False
        self.role = None
        self.last_touch = -1
        self.fill_time = -1
        self.secondary = False

    def fill(
        self,
        tag: int,
        now: int,
        *,
        conflict_bit: bool = False,
        role: BufferRole | None = None,
        dirty: bool = False,
    ) -> None:
        """Install a new line, replacing whatever was here."""
        self.tag = tag
        self.valid = True
        self.dirty = dirty
        self.conflict_bit = conflict_bit
        self.role = role
        self.last_touch = now
        self.fill_time = now
        self.secondary = False

    def touch(self, now: int) -> None:
        """Record an access for LRU purposes."""
        self.last_touch = now

    def snapshot(self) -> "EvictedLine":
        """Freeze the line's identity for post-eviction processing."""
        return EvictedLine(
            tag=self.tag,
            dirty=self.dirty,
            conflict_bit=self.conflict_bit,
            role=self.role,
            secondary=self.secondary,
        )


@dataclass(frozen=True)
class EvictedLine:
    """Immutable record of a line at the moment it was evicted.

    Victim policies, the MCT update, and the conflict-bit filters all
    operate on the evicted line *after* the replacement decision, so they
    receive this frozen snapshot rather than the (already overwritten)
    :class:`CacheLine` slot.
    """

    tag: int
    dirty: bool = False
    conflict_bit: bool = False
    role: BufferRole | None = None
    secondary: bool = False
