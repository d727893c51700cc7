"""Miss-ratio curves: per-size FA-LRU miss counts from one stack pass.

A :class:`MissRatioCurve` is the aggregate view of a
:class:`~repro.mrc.stack.StackProfile`: the miss count (and ratio) of a
fully-associative LRU cache at every probed capacity.  Computing it
costs one O(N log N) pass regardless of how many sizes are probed —
this is the subsystem's headline replacement for the O(sizes × trace)
sweep that previously re-simulated a
:class:`~repro.cache.fully_assoc.FullyAssociativeLRU` per point.

:func:`brute_force_fa_misses` is the independent reference
implementation the acceptance tests (and ``python -m repro.mrc
--check``) compare against: the curve must be *byte-identical* to it at
every probed size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cache.fully_assoc import FullyAssociativeLRU
from repro.mrc.stack import StackProfile, _is_pow2, compute_profile


def default_size_ladder(
    line_size: int = 64, min_bytes: int = 1 << 10, max_bytes: int = 256 << 10
) -> Tuple[int, ...]:
    """Power-of-two capacities in *lines*, ``min_bytes`` .. ``max_bytes``."""
    if min_bytes < line_size:
        raise ValueError("min_bytes must hold at least one line")
    if max_bytes < min_bytes:
        raise ValueError("max_bytes must be >= min_bytes")
    sizes: List[int] = []
    size = min_bytes
    while size <= max_bytes:
        sizes.append(size // line_size)
        size *= 2
    return tuple(sizes)


@dataclass(frozen=True)
class MissRatioCurve:
    """FA-LRU miss counts over a ladder of cache sizes (in lines)."""

    line_size: int
    total_refs: int
    cold_misses: int
    sizes_lines: Tuple[int, ...]
    misses: Tuple[int, ...]
    #: True for the exact single-pass curve; False for SHARDS estimates.
    exact: bool = True

    def __post_init__(self) -> None:
        if len(self.sizes_lines) != len(self.misses):
            raise ValueError("sizes_lines and misses must have equal lengths")
        if any(s <= 0 for s in self.sizes_lines):
            raise ValueError("cache sizes must be positive line counts")

    def miss_ratios(self) -> List[float]:
        """Miss ratio per size, in [0, 1] (0.0 for an empty trace)."""
        if self.total_refs == 0:
            return [0.0 for _ in self.misses]
        return [m / self.total_refs for m in self.misses]

    def size_bytes(self, index: int) -> int:
        return self.sizes_lines[index] * self.line_size

    def as_rows(self) -> List[Tuple[int, int, float]]:
        """(size_bytes, misses, miss_ratio) per probed size."""
        ratios = self.miss_ratios()
        return [
            (self.size_bytes(i), self.misses[i], ratios[i])
            for i in range(len(self.sizes_lines))
        ]


def curve_from_profile(
    profile: StackProfile, sizes_lines: Optional[Sequence[int]] = None
) -> MissRatioCurve:
    """Read the miss-ratio curve off an existing stack profile."""
    sizes = tuple(sizes_lines) if sizes_lines is not None else default_size_ladder(
        profile.line_size
    )
    return MissRatioCurve(
        line_size=profile.line_size,
        total_refs=profile.total_refs,
        cold_misses=profile.cold_misses,
        sizes_lines=sizes,
        misses=tuple(profile.miss_counts(sizes)),
    )


def compute_mrc(
    addresses: "Iterable[int]",
    line_size: int = 64,
    sizes_lines: Optional[Sequence[int]] = None,
) -> MissRatioCurve:
    """One-call convenience: stack pass + curve extraction."""
    return curve_from_profile(compute_profile(addresses, line_size), sizes_lines)


def brute_force_fa_misses(
    addresses: "Iterable[int]", line_size: int, capacity_lines: int
) -> int:
    """Reference implementation: simulate one FA-LRU cache of one size.

    This is exactly what the pre-MRC sweep paid *per probed size*; the
    tests pin ``MissRatioCurve.misses`` to it, byte-identical, at every
    size, and the benchmark harness measures the resulting speedup.
    """
    if not _is_pow2(line_size):
        raise ValueError(f"line size must be a power of two, got {line_size}")
    shift = line_size.bit_length() - 1
    cache = FullyAssociativeLRU(capacity=capacity_lines)
    access = cache.access
    misses = 0
    for addr in addresses:
        hit, _ = access(int(addr) >> shift)
        if not hit:
            misses += 1
    return misses
