"""Fully-associative LRU tag store with O(1) access.

Two consumers need a fully-associative model:

* the **ground-truth classifier** (:mod:`repro.core.ground_truth`), which
  implements Hill's classic conflict/capacity definition by asking "would
  this miss have hit in a fully-associative LRU cache of the same
  capacity?" — that model sees every access of a multi-million-reference
  trace, so the linear scan of a generic set-associative set would dominate
  simulation time.  This class keys an ``OrderedDict`` by block number for
  O(1) probes, fills and LRU updates;
* small cache-assist buffers, which layer richer entry metadata on top
  (see :mod:`repro.buffers.assist`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.cache.stats import CacheStats


class FullyAssociativeLRU:
    """Fully-associative LRU cache over line-granular block numbers.

    Parameters
    ----------
    capacity:
        Number of lines the cache can hold (must be positive).

    The cache is keyed by *block number* (address >> offset_bits); callers
    are responsible for that shift so this class stays geometry-free.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        # Maps block number -> None; ordering carries the LRU stack
        # (least recently used first).
        self._blocks: "OrderedDict[int, None]" = OrderedDict()

    def probe(self, block: int) -> bool:
        """True when ``block`` is resident; no LRU update."""
        return block in self._blocks

    def access(self, block: int) -> tuple[bool, Optional[int]]:
        """Reference ``block``: LRU-touch on hit, allocate on miss.

        Returns ``(hit, evicted_block)``; ``evicted_block`` is None unless
        the fill displaced a resident line.
        """
        self.stats.accesses += 1
        if block in self._blocks:
            self._blocks.move_to_end(block)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        evicted: Optional[int] = None
        if len(self._blocks) >= self.capacity:
            evicted, _ = self._blocks.popitem(last=False)
            self.stats.evictions += 1
        self._blocks[block] = None
        self.stats.fills += 1
        return False, evicted

    def touch(self, block: int) -> bool:
        """Move a resident block to MRU; returns False if absent."""
        if block not in self._blocks:
            return False
        self._blocks.move_to_end(block)
        return True

    def invalidate(self, block: int) -> bool:
        """Remove ``block``; returns False if it was not resident."""
        return self._blocks.pop(block, False) is None

    def occupancy(self) -> int:
        return len(self._blocks)

    def flush(self) -> None:
        self._blocks.clear()

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FullyAssociativeLRU {len(self._blocks)}/{self.capacity} lines>"
        )
