"""Exact single-pass Mattson stack-distance engine.

The classic observation behind every miss-ratio-curve tool (Mattson et
al. 1970): fully-associative LRU has the *inclusion property*, so one
pass that records each reference's **stack distance** — the number of
distinct blocks touched since the previous reference to the same block,
counting the block itself — determines the hit/miss outcome for *every*
cache capacity at once: a reference with stack distance ``d`` hits in an
FA-LRU cache of ``C`` lines iff ``d <= C``.

The naive stack implementation scans a recency list per reference
(O(N·M) over a trace of N references and M distinct blocks).  The
classic fix is the tree trick (Bennett & Kruskal 1975): a Fenwick tree
over trace positions holds a 1 at the *most recent* position of every
distinct block, so distinct-blocks-in-interval is a prefix-sum query —
O(N log N) total, independent of how many cache sizes are later probed.
That form survives here as :func:`compute_profile_reference`, the
reference the tests pin the fast engine against, but a per-reference
Python loop around two tree walks costs microseconds per reference.
(:mod:`repro.mrc.sampling` streams, so it reads the same interval count
off a sorted list of the live blocks' last positions instead.)

:func:`compute_profile` instead computes the identical distances with
no per-reference Python at all.  Writing ``prev[t]`` for the (1-based)
previous-occurrence position of reference ``t``'s block (0 when cold),
the window ``(prev[t], t)`` contains ``t - prev[t] - 1`` references, of
which the duplicates — references ``j`` whose *own* previous occurrence
also lies inside the window, ``prev[j] > prev[t]`` — each collapse onto
an earlier reference to the same block.  Because every position is the
``prev`` of at most one later reference, positions outside the window
satisfy ``prev[j] <= prev[t]``, so::

    distance[t] = (t - prev[t]) - #{j < t : prev[j] > prev[t]}

The correction term is an element-wise inversion count of the ``prev``
array, which vectorises by bit decomposition: for each level ``w``
(1, 2, 4, …), split positions into aligned ``2w`` pairs; every ordered
pair ``(j, t)`` lands exactly once with ``j`` in a left half-run and
``t`` in the matching right half-run (at the level of their highest
differing index bit), so sorting the left half-runs and batching one
``np.searchsorted`` per level counts all inversions in
O(N log^2 N) C-speed work — measurably faster than simulating even a
single FA-LRU cache in Python, let alone one per probed size.

The cost falls on **run heads** only.  A reference that repeats the
previous reference's block has distance 1 and leaves the LRU order as
it was, so :func:`stack_distances` drops it, runs the chain and the
inversion count over the heads, and writes the repeats back as 1.
Set-sorted streams repeat most: in five SPEC95 analogs 46-83% of the
references in the simulator's set-sorted L1 and L2 streams are
repeats, against 16-61% in trace order.  :func:`set_lru_flags` needs
no stack pass at all at one and two ways, where the set holds the last
one or two heads of its segment; a wider set still reads the distances.

The per-reference distances are retained (not just a histogram) because
the conflict-decomposition layer (:mod:`repro.mrc.decompose`) and the
accuracy measurement (:func:`repro.core.accuracy.measure_accuracy`)
classify *individual* real-cache misses against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Sentinel stack distance for a first touch (cold / compulsory miss).
COLD = -1


def _log2(n: int) -> int:
    return n.bit_length() - 1


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class StackProfile:
    """The result of one stack-distance pass over a reference stream.

    ``distances`` holds one entry per reference: :data:`COLD` for a
    first touch, otherwise the 1-based Mattson stack depth.  The profile
    answers FA-LRU hit/miss questions for every capacity; consumers that
    only need aggregate curves use :meth:`miss_counts`.
    """

    line_size: int
    distances: "np.ndarray"  # int64, one entry per reference
    cold_misses: int

    @property
    def total_refs(self) -> int:
        return int(len(self.distances))

    @property
    def footprint_lines(self) -> int:
        """Distinct blocks touched (== cold misses, by definition)."""
        return self.cold_misses

    def finite_distances_sorted(self) -> "np.ndarray":
        """Warm-reference distances in ascending order (cached lazily)."""
        finite = self.distances[self.distances != COLD]
        # Value-only sort: equal distances are interchangeable in every
        # consumer (thresholded counts), so stability buys nothing.
        return np.sort(finite)  # repro: noqa[RPR060]

    def miss_counts(self, sizes_lines: Iterable[int]) -> List[int]:
        """FA-LRU miss count at each capacity, from the one shared pass.

        ``misses(C) = cold + #{d > C}`` — byte-identical to simulating a
        :class:`~repro.cache.fully_assoc.FullyAssociativeLRU` of ``C``
        lines over the same stream, at every ``C`` at once.
        """
        finite = self.finite_distances_sorted()
        n_warm = int(len(finite))
        out: List[int] = []
        for size in sizes_lines:
            if size <= 0:
                raise ValueError(f"cache size in lines must be positive, got {size}")
            hits = int(np.searchsorted(finite, size, side="right"))
            out.append(self.cold_misses + (n_warm - hits))
        return out

    def histogram(self) -> Dict[int, int]:
        """Distance -> reference count (cold references under ``COLD``)."""
        values, counts = np.unique(self.distances, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


class _Fenwick:
    """Minimal Fenwick (binary indexed) tree over 1..n, int counters."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def _validated_blocks(
    addresses: "np.ndarray | Iterable[int]", line_size: int
) -> "np.ndarray":
    if not _is_pow2(line_size):
        raise ValueError(f"line size must be a power of two, got {line_size}")
    addr_array = np.asarray(addresses, dtype=np.int64)
    if addr_array.ndim != 1:
        raise ValueError("addresses must be a one-dimensional sequence")
    return addr_array >> _log2(line_size)


def _prev_positions(blocks: "np.ndarray") -> "np.ndarray":
    """1-based previous-occurrence position per reference (0 = cold)."""
    n = int(len(blocks))
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    prev = np.zeros(n, dtype=np.int64)
    # Within each equal-block run of the stable sort, positions ascend,
    # so each element's predecessor in the run is its previous occurrence.
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    prev[order[1:]] = np.where(same, order[:-1] + 1, 0)
    return prev


def _inversions_above(values: "np.ndarray") -> "np.ndarray":
    """``out[t] = #{j < t : values[j] > values[t]}``, vectorised.

    Bit-decomposition pair counting: each ordered pair ``(j, t)`` is
    counted at exactly one level ``w`` — the one where ``j`` falls in
    the left half and ``t`` in the right half of the same aligned
    ``2w`` block (the level of their highest differing index bit).  Row
    offsets larger than any value let one flat ``searchsorted`` answer
    every row's query at once.
    """
    n = int(len(values))
    out = np.zeros(n, dtype=np.int64)
    if n < 2:
        return out
    span = int(values.max()) + 2  # row stride; pad value -1 stays inside
    width = 1
    while width < n:
        pair = 2 * width
        rows = (n + pair - 1) // pair
        padded = np.full(rows * pair, -1, dtype=np.int64)
        padded[:n] = values
        table = padded.reshape(rows, pair)
        # Value-only sort feeding searchsorted ranks; ties carry equal
        # values, so the unstable kind cannot change any rank.
        left = np.sort(table[:, :width], axis=1)  # repro: noqa[RPR060]
        right = table[:, width:]
        offsets = np.arange(rows, dtype=np.int64)[:, None] * span
        ranks = np.searchsorted(
            (left + offsets).ravel(), (right + offsets).ravel(), side="right"
        )
        counts = width - (ranks - np.repeat(np.arange(rows) * width, width))
        targets = (
            np.arange(rows * pair).reshape(rows, pair)[:, width:].ravel()
        )
        keep = targets < n
        # Targets are unique within a level, so a fancy-indexed add is
        # safe (and much cheaper than np.add.at's unbuffered path).
        out[targets[keep]] += counts[keep]
        width = pair
    return out


def stack_distances(blocks: "np.ndarray") -> "np.ndarray":
    """Exact per-reference FA-LRU stack distances over block numbers.

    ``blocks`` is a one-dimensional integer array of already line-granular
    block identifiers; the result holds :data:`COLD` for first touches and
    the 1-based Mattson stack depth otherwise.  This is the vectorised
    engine described in the module docstring, factored out of
    :func:`compute_profile` so the set-partitioned simulation engine
    (:mod:`repro.system.vector`) can share it.  That engine applies it to
    a stream stably sorted by cache-set index: each set's references are
    then contiguous and in order, every reference's reuse window lies
    inside its own set's segment, and references in *earlier* segments
    have ``prev[j] <= j < prev[t]`` so they never contribute to the
    inversion correction — the distances within each segment are exactly
    that set's private stack distances.

    Only run heads — references whose block differs from the previous
    reference's — are priced.  A continuation has distance 1 and leaves
    the LRU order as it was, so dropping it changes no other distance:
    the chain and the inversion count run over the heads, and the
    continuations are written back as 1.
    """
    n = int(len(blocks))
    distances = np.ones(n, dtype=np.int64)
    if n == 0:
        return distances
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    prev = _prev_positions(blocks[heads])
    duplicates = _inversions_above(prev)
    positions = np.arange(1, len(heads) + 1, dtype=np.int64)
    head_distances = positions - prev - duplicates
    head_distances[prev == 0] = COLD
    distances[heads] = head_distances
    return distances


def set_order(sets: "np.ndarray", num_sets: int) -> "np.ndarray":
    """The stable argsort of per-reference set indices in ``[0, num_sets)``.

    Each set's references come out contiguous and in their original
    order, as :func:`set_lru_flags` requires.  Up to 2^16 sets the
    indices fit a ``uint16`` key, which numpy radix-sorts under
    ``kind="stable"``: the same permutation, several times faster than
    sorting the int64 indices.
    """
    if num_sets <= 1 << 16:
        return np.argsort(sets.astype(np.uint16), kind="stable")
    return np.argsort(sets, kind="stable")


def set_lru_flags(
    blocks: "np.ndarray", sets: "np.ndarray", assoc: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-reference (hit, evict) flags of a set-LRU cache, vectorised.

    ``blocks`` must be a block-number stream **stably sorted by** ``sets``
    (its per-position set indices), so each set's references form one
    contiguous, in-order segment.  Set-LRU with ``assoc`` ways is FA-LRU
    of capacity ``assoc`` within each set, so:

    * a reference **hits** iff its stack distance is finite and
      ``<= assoc`` (the distances of the sorted stream are each set's
      private distances — see :func:`stack_distances`);
    * a miss **evicts** iff the set has already filled all ``assoc``
      ways, i.e. the count of distinct blocks seen earlier in the
      segment (cold misses before it) is ``>= assoc`` — matching an LRU
      victim picker that prefers invalid ways.

    At ``assoc`` 1 and 2 neither needs a stack pass.  A block has one
    set, so equal neighbours share a segment, and a reference that
    repeats its predecessor's block (a continuation) hits and evicts
    nothing.  Between run heads — the other references — the set's
    MRU block is the previous head and the next most recent the head
    before that, when they share its segment:

    * direct-mapped, a head always misses, and evicts unless it opens
      its segment;
    * 2-way, a head hits iff it equals the head two before it (equal
      blocks share a set, so that head lies in the same segment), and a
      missing head evicts iff it is at least the third head of its
      segment.

    Shared by the simulation engine's L1 and L2 passes
    (:mod:`repro.system.vector`) and the conflict decomposition
    (:mod:`repro.mrc.decompose`); the caller scatters the flags back to
    trace order with the inverse of its sorting permutation
    (:func:`set_order` makes the sort).
    """
    k = int(len(blocks))
    if k == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, empty.copy()
    if assoc <= 2:
        # Continuations hit; run heads are decided below.
        hit = np.zeros(k, dtype=bool)
        np.equal(blocks[1:], blocks[:-1], out=hit[1:])
        if assoc == 1:
            evict = ~hit
            evict[0] = False
            evict[1:] &= sets[1:] == sets[:-1]
            return hit, evict
        heads = np.flatnonzero(~hit)
        later, before = heads[2:], heads[:-2]
        head_hit = blocks[later] == blocks[before]
        hit[later] = head_hit
        evict = np.zeros(k, dtype=bool)
        evict[later] = ~head_hit & (sets[later] == sets[before])
        return hit, evict

    distances = stack_distances(blocks)
    hit = (distances != COLD) & (distances <= assoc)
    cold = (distances == COLD).astype(np.int64)
    cold_before = np.cumsum(cold) - cold
    seg_start = np.empty(k, dtype=bool)
    seg_start[0] = True
    np.not_equal(sets[1:], sets[:-1], out=seg_start[1:])
    positions = np.arange(k, dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, positions, 0))
    distinct_before = cold_before - cold_before[seg_first]
    evict = ~hit & (distinct_before >= assoc)
    return hit, evict


def compute_profile(
    addresses: "np.ndarray | Iterable[int]", line_size: int = 64
) -> StackProfile:
    """One exact stack-distance pass over byte ``addresses``.

    Addresses are reduced to line-granular block numbers with
    ``line_size`` (a power of two), exactly like
    :meth:`repro.cache.geometry.CacheGeometry.block_number`, so the
    resulting profile is interchangeable with the view
    :class:`~repro.core.ground_truth.GroundTruthClassifier` has of the
    same stream.  Distances are bit-identical to
    :func:`compute_profile_reference` (the property tests enforce it);
    this path is the vectorised engine described in the module
    docstring.
    """
    blocks = _validated_blocks(addresses, line_size)
    distances = stack_distances(blocks)
    return StackProfile(
        line_size=line_size,
        distances=distances,
        cold_misses=int(np.count_nonzero(distances == COLD)),
    )


def compute_profile_reference(
    addresses: "np.ndarray | Iterable[int]", line_size: int = 64
) -> StackProfile:
    """Bennett-Kruskal Fenwick form of :func:`compute_profile`.

    Kept as the independently-derived implementation the property tests
    pin the vectorised engine against.
    """
    blocks: List[int] = _validated_blocks(addresses, line_size).tolist()
    n = len(blocks)
    distances = np.empty(n, dtype=np.int64)
    tree = _Fenwick(n)
    tree_add = tree.add
    tree_prefix = tree.prefix
    last_pos: Dict[int, int] = {}
    cold = 0
    for t, block in enumerate(blocks, start=1):
        prev = last_pos.get(block)
        if prev is None:
            distances[t - 1] = COLD
            cold += 1
        else:
            # Distinct blocks touched strictly after prev, plus the
            # block itself: its 1-based depth in the LRU stack.
            distances[t - 1] = tree_prefix(t - 1) - tree_prefix(prev) + 1
            tree_add(prev, -1)
        tree_add(t, 1)
        last_pos[block] = t
    return StackProfile(line_size=line_size, distances=distances, cold_misses=cold)
