"""The set-associative cache model.

This is the workhorse substrate: the L1 data cache, the L2 cache, the
Memory Access Table's backing store and the ground-truth models are all
built from it (or from its fully-associative sibling).

The cache is a *tag store only* — no data is modelled, because every
experiment in the paper depends on hit/miss behaviour and traffic, never on
values.  Lookups and fills are explicit and separated so policy code (e.g.
cache exclusion, which must *not* allocate on some misses) can control
allocation precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine, EvictedLine
from repro.cache.replacement import LRUReplacement, ReplacementPolicy
from repro.cache.stats import CacheStats


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single cache access.

    Attributes
    ----------
    hit:
        Whether the reference hit.
    way:
        The way that served the hit or received the fill (None when the
        access missed and the caller suppressed allocation).
    evicted:
        Snapshot of the line displaced by an allocating miss, or None when
        the fill landed in an invalid way or no fill happened.
    set_index:
        The set the reference mapped to.
    """

    hit: bool
    way: Optional[int]
    evicted: Optional[EvictedLine]
    set_index: int


class FillResult(NamedTuple):
    """Outcome of :meth:`SetAssociativeCache.fill`.

    Attributes
    ----------
    way:
        The way the incoming line was installed in.
    evicted:
        Snapshot of the displaced line, or None when the fill landed in
        an invalid way.
    """

    way: int
    evicted: Optional[EvictedLine]


class SetAssociativeCache:
    """A classic set-associative, write-back, allocate-on-miss tag store.

    Parameters
    ----------
    geometry:
        Address mapping (size / associativity / line size).
    policy:
        Replacement policy; the paper's caches use LRU.
    name:
        Label used in reports and reprs.
    on_evict:
        Optional hook called with each :class:`EvictedLine` and its set
        index at the moment of eviction.  The Miss Classification Table is
        attached through this hook.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
        on_evict: Optional[Callable[[int, EvictedLine], None]] = None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy if policy is not None else LRUReplacement()
        self.name = name
        self.on_evict = on_evict
        self.stats = CacheStats()
        # A set's ways are built when it is first filled or handed out
        # (None until then): the paper's 1 MB 2-way L2 alone would be
        # 16,384 line objects, most of them never touched by a run.
        self._sets: List[Optional[List[CacheLine]]] = [None] * geometry.num_sets
        self._now = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Logical access counter used for LRU ordering."""
        return self._now

    def _tick(self) -> int:
        self._now += 1
        return self._now

    def _built(self, index: int) -> List[CacheLine]:
        """Set ``index``'s lines, building its invalid ways on first use."""
        lines = self._sets[index]
        if lines is None:
            lines = self._sets[index] = [
                CacheLine() for _ in range(self.geometry.assoc)
            ]
        return lines

    # ------------------------------------------------------------------
    # Queries (non-allocating)
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """True when ``addr`` is resident.  No state is changed."""
        geometry = self.geometry
        tag = geometry.tag(addr)
        for line in self._sets[geometry.set_index(addr)] or ():
            if line.valid and line.tag == tag:
                return True
        return False

    def find_way(self, addr: int) -> Optional[int]:
        """The way holding ``addr``, or None.  No state is changed."""
        tag = self.geometry.tag(addr)
        for way, line in enumerate(self._sets[self.geometry.set_index(addr)] or ()):
            if line.valid and line.tag == tag:
                return way
        return None

    def peek_line(self, addr: int) -> Optional[CacheLine]:
        """The resident :class:`CacheLine` for ``addr``, or None."""
        way = self.find_way(addr)
        if way is None:
            return None
        return self._built(self.geometry.set_index(addr))[way]

    def lines_of_set(self, index: int) -> List[CacheLine]:
        """Direct (mutable) view of one set — for tests and policies."""
        return self._built(index)

    def victim_preview(self, addr: int) -> Optional[EvictedLine]:
        """Which line *would* be evicted by a fill of ``addr`` right now.

        Returns None when the fill would land in an invalid way.  Does not
        change any state; used by policies that must decide where an
        incoming line goes before committing the fill.
        """
        lines = self._sets[self.geometry.set_index(addr)]
        if lines is None:
            return None
        way = self.policy.choose_victim(lines)
        victim = lines[way]
        return victim.snapshot() if victim.valid else None

    # ------------------------------------------------------------------
    # Mutating operations
    # ------------------------------------------------------------------
    def access(self, addr: int, *, write: bool = False) -> AccessResult:
        """Reference ``addr``: touch on hit, allocate on miss (default flow).

        Policy code that separates lookup from allocation should use
        :meth:`lookup` and :meth:`fill` instead.
        """
        result = self.lookup(addr, write=write)
        if result.hit:
            return result
        filled = self.fill(addr, dirty=write)
        return AccessResult(
            hit=False,
            way=filled.way,
            evicted=filled.evicted,
            set_index=result.set_index,
        )

    def lookup(self, addr: int, *, write: bool = False) -> AccessResult:
        """Reference ``addr`` without allocating on a miss.

        Hits update LRU state and the dirty bit; misses only bump the miss
        counter.  The caller decides whether/where to allocate.
        """
        now = self._tick()
        geometry = self.geometry
        stats = self.stats
        index = geometry.set_index(addr)
        tag = geometry.tag(addr)
        stats.accesses += 1
        for way, line in enumerate(self._sets[index] or ()):
            if line.valid and line.tag == tag:
                line.touch(now)
                if write:
                    line.dirty = True
                stats.hits += 1
                return AccessResult(hit=True, way=way, evicted=None, set_index=index)
        stats.misses += 1
        return AccessResult(hit=False, way=None, evicted=None, set_index=index)

    def fill(
        self,
        addr: int,
        *,
        conflict_bit: bool = False,
        dirty: bool = False,
    ) -> FillResult:
        """Install the line holding ``addr``, evicting per policy.

        Returns a :class:`FillResult` carrying the way that received the
        line and the evicted line's snapshot (None when an invalid way
        absorbed the fill), so callers never need to re-scan the set to
        locate the line they just installed.  Fires the ``on_evict`` hook
        and counts a writeback for dirty victims.

        Filling an address that is already resident is a programming error
        and raises ``ValueError`` — it would create a duplicate tag.
        """
        if self.probe(addr):
            raise ValueError(
                f"{self.name}: fill of resident address {addr:#x} would duplicate a tag"
            )
        now = self._tick()
        index = self.geometry.set_index(addr)
        lines = self._built(index)
        way = self.policy.choose_victim(lines)
        victim_line = lines[way]
        evicted: Optional[EvictedLine] = None
        if victim_line.valid:
            evicted = victim_line.snapshot()
            self.stats.evictions += 1
            if evicted.dirty:
                self.stats.writebacks += 1
            if self.on_evict is not None:
                self.on_evict(index, evicted)
        victim_line.fill(
            self.geometry.tag(addr), now, conflict_bit=conflict_bit, dirty=dirty
        )
        self.stats.fills += 1
        return FillResult(way=way, evicted=evicted)

    def invalidate(self, addr: int) -> Optional[EvictedLine]:
        """Remove ``addr`` if resident; returns its snapshot.

        Used by swap operations (victim cache, pseudo-associative cache)
        that move a line out of the cache without a replacement fill.  Does
        not fire ``on_evict`` — a swap is not an eviction in the paper's
        sense (the line stays in the cache/buffer complex).
        """
        way = self.find_way(addr)
        if way is None:
            return None
        line = self._built(self.geometry.set_index(addr))[way]
        snap = line.snapshot()
        line.invalidate()
        return snap

    def set_conflict_bit(self, addr: int, value: bool) -> bool:
        """Set the conflict bit of a resident line; returns False if absent."""
        line = self.peek_line(addr)
        if line is None:
            return False
        line.conflict_bit = value
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[int]:
        """Yield the line-aligned address of every valid resident line."""
        for index, lines in enumerate(self._sets):
            for line in lines or ():
                if line.valid:
                    yield self.geometry.compose(line.tag, index)

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1 for lines in self._sets if lines for line in lines if line.valid
        )

    def flush(self) -> None:
        """Invalidate every line (stats are kept)."""
        for lines in self._sets:
            for line in lines or ():
                line.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name}: {self.geometry.describe()}, "
            f"{self.occupancy()}/{self.geometry.num_lines} lines valid>"
        )
