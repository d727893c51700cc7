"""Per-size compulsory/capacity/conflict decomposition of real misses.

Hill's taxonomy (the one :mod:`repro.core.ground_truth` implements)
classifies each *real-cache* miss against a fully-associative LRU cache
of equal capacity.  This layer prices the set-indexed geometry at each
probed size and classifies every miss from the shared single-pass
:class:`~repro.mrc.stack.StackProfile`, with the masks
:func:`repro.core.accuracy.measure_accuracy` uses:

* first touch — **compulsory**;
* stack distance ``<= capacity_lines`` (the FA cache would have hit) —
  **conflict**;
* otherwise — **capacity**.

The real cache's hits come from :func:`repro.mrc.stack.set_lru_flags`
over the set-sorted stream, the set-LRU kernel the simulator's L1 and
L2 passes run; the FA model is read off the one stack pass for every
size.  The test suite pins the decomposition, count for count, to
:class:`~repro.core.ground_truth.GroundTruthClassifier` running against
:class:`~repro.cache.set_assoc.SetAssociativeCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.mrc.stack import (
    COLD,
    StackProfile,
    _is_pow2,
    _log2,
    compute_profile,
    set_lru_flags,
    set_order,
)


@dataclass(frozen=True)
class ConflictSplit:
    """Hill's three-way miss split for one cache size (at fixed assoc)."""

    size_lines: int
    assoc: int
    line_size: int
    total_refs: int
    misses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def size_bytes(self) -> int:
        return self.size_lines * self.line_size

    @property
    def hits(self) -> int:
        return self.total_refs - self.misses

    @property
    def miss_rate(self) -> float:
        """Real-cache miss rate in percent."""
        return 100.0 * self.misses / self.total_refs if self.total_refs else 0.0

    @property
    def conflict_share(self) -> float:
        """Conflict misses as a share of all misses, in percent."""
        return 100.0 * self.conflict / self.misses if self.misses else 0.0

    def breakdown(self) -> Dict[str, int]:
        """Same shape as ``GroundTruthClassifier.miss_breakdown()``."""
        return {
            "compulsory": self.compulsory,
            "conflict": self.conflict,
            "capacity": self.capacity,
        }


def decompose_size(
    blocks: "np.ndarray | Sequence[int]",
    profile: StackProfile,
    size_lines: int,
    assoc: int,
) -> ConflictSplit:
    """Price one set-indexed LRU geometry and split its misses.

    ``blocks`` must be the line-granular block numbers of exactly the
    stream ``profile`` was computed from.
    """
    if assoc < 1:
        raise ValueError(f"associativity must be >= 1, got {assoc}")
    if size_lines % assoc != 0:
        raise ValueError(
            f"size of {size_lines} lines not divisible by assoc {assoc}"
        )
    num_sets = size_lines // assoc
    if not _is_pow2(num_sets):
        raise ValueError(
            f"set count {num_sets} must be a power of two (bit-selection "
            f"indexing)"
        )
    block_array = np.asarray(blocks, dtype=np.int64)
    sets = block_array & (num_sets - 1)
    order = set_order(sets, num_sets)
    hit, _ = set_lru_flags(block_array[order], sets[order], assoc)
    distances = profile.distances[order]
    miss = ~hit
    cold = distances == COLD
    actual = miss & ~cold & (distances <= size_lines)
    misses, compulsory, conflict = np.count_nonzero(
        np.stack((miss, cold, actual)), axis=1
    ).tolist()
    return ConflictSplit(
        size_lines=size_lines,
        assoc=assoc,
        line_size=profile.line_size,
        total_refs=len(block_array),
        misses=misses,
        compulsory=compulsory,
        capacity=misses - compulsory - conflict,
        conflict=conflict,
    )


def conflict_decomposition(
    addresses: "np.ndarray | Iterable[int]",
    *,
    assoc: int = 1,
    line_size: int = 64,
    sizes_lines: Sequence[int],
    profile: Optional[StackProfile] = None,
) -> List[ConflictSplit]:
    """Three-way miss split at every probed size, from one stack pass.

    ``profile`` may be supplied when the caller already paid for the
    pass (the MRC experiments compute curve and decomposition from the
    same profile); it must come from the same stream and ``line_size``.
    """
    addr_array = np.asarray(addresses, dtype=np.int64)
    if profile is None:
        profile = compute_profile(addr_array, line_size)
    elif profile.line_size != line_size:
        raise ValueError(
            f"profile line size {profile.line_size} != requested {line_size}"
        )
    if profile.total_refs != int(len(addr_array)):
        raise ValueError(
            f"profile covers {profile.total_refs} refs, stream has "
            f"{len(addr_array)}"
        )
    blocks = addr_array >> _log2(line_size)
    return [
        decompose_size(blocks, profile, size, assoc) for size in sizes_lines
    ]
