"""SHARDS spatial sampling for near-constant-cost approximate MRCs.

SHARDS (Waldspurger et al., FAST 2015) filters the reference stream by a
hash of the *block number*: a block is sampled iff
``hash(block) < T``, giving an effective sampling rate ``R = T / 2^64``
over the block population.  Because the filter is spatial (per block,
not per reference), every reference to a sampled block is seen, so
reuse behaviour inside the sample is intact; measured sample-domain
stack distances are rescaled by ``1/R`` to estimate true distances, and
each sampled reference stands for ``1/R`` references.

Two modes:

* **fixed-rate** — a constant ``R`` chosen up front; cost scales with
  ``R × N``.
* **fixed-size** (``SHARDS_max``) — a bound on *distinct sampled
  blocks*; when the sample set overflows, the block with the largest
  hash is evicted and the threshold lowered to that hash, so the rate
  adapts downward to the footprint and memory stays constant.

Miss ratios are estimated *within* the weighted sample —
``miss ratio(C) = weighted sampled misses(C) / weighted sampled refs``
— rather than dividing rescaled miss counts by the full trace length.
The two denominators agree only in expectation; using the sample-domain
one cancels the correlated error the paper corrects as ``SHARDS_adj``
(a sample whose blocks happen to be hotter or colder than average
shifts every point of the naive estimate coherently).

**Error model** (documented, not enforced): spatial sampling keeps or
drops *blocks*, and all references to a block stand or fall together —
so the effective sample size is the number of distinct sampled blocks
(and the error is heavy-tailed when reference weight concentrates in
few hot blocks), not the number of sampled references.  The SHARDS
paper reports mean absolute miss-ratio error under 0.02 down to
``R = 0.001`` on multi-million-block traces, with error growing sharply
below ~1K sampled blocks; this repo's synthetic traces have footprints
of only 1-5K blocks, so useful rates are far higher.  Measured on the
evaluation suite (50K refs, three seeds): fixed-size at 1024 blocks
gives mean absolute error ~0.005 (max ~0.04); fixed-rate ``R = 0.1``
(~100-500 blocks) gives mean ~0.03 with worst cases above 0.2 on the
smallest-footprint workloads.  The test suite pins fixed seeds at
fixed-size 1024 within a 0.05 absolute tolerance.  Fixed-size mode
additionally carries the usual SHARDS caveat that references sampled
*before* a threshold drop are not rescaled retroactively.

**Incremental feeding** (the online-service form): the whole pass lives
in a :class:`ShardsEstimator`, which accepts the stream in arbitrary
chunks through :meth:`~ShardsEstimator.feed` and snapshots the current
curve through :meth:`~ShardsEstimator.result` at any point.  Each chunk
is hashed in numpy (:func:`hash_blocks`).  The threshold never rises,
so masking ``hash < T`` at chunk start drops only references the pass
would skip anyway; the candidates that remain enter the Python loop,
which re-checks each against the live threshold.  The
sampled LRU stack is a sorted list of the live blocks' last sampled
positions: a warm reference's sample-domain distance is the count of
positions after its previous one, plus one, read with one ``bisect``.
Positions are never renumbered, so feeding a trace in chunks is
*exactly* equivalent to one batch call, weight for weight.  In
fixed-size mode the live-block map, the position list and the eviction
heap each hold exactly the sampled blocks, so state stays within
``3 × max_blocks`` entries no matter how long the stream runs — the
property the multi-tenant service (:mod:`repro.serve`) leans on for its
per-tenant byte budget.  :func:`sampled_curve` remains the one-shot
convenience wrapper.

**Cost model**: per warm sampled reference, two C-level bisects and one
``del``, a memmove of O(sample-domain distance) pointers.  That stays
cheap up to the service's 65,536-block clamp; fixed-rate sampling with
far more live blocks is the one slow regime, where a ``max_blocks``
bound or the exact :func:`repro.mrc.curve.compute_mrc` serves better
(measured in ``docs/mrc.md``).

Determinism: sampling uses only a seeded splitmix64 finalizer
(:func:`hash_block`, vectorised as :func:`hash_blocks`) — never an RNG,
the OS entropy pool, or the wall clock, so a (trace, seed) pair always
yields the same curve.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mrc.curve import MissRatioCurve, default_size_ladder
from repro.mrc.stack import _is_pow2, _validated_blocks

_MASK64 = (1 << 64) - 1
_FULL = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def hash_block(block: int, seed: int = 0) -> int:
    """Seeded splitmix64 finalizer: uniform 64-bit hash of a block number."""
    x = (block + _GAMMA + (seed * _MIX1)) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def hash_blocks(blocks: "np.ndarray", seed: int = 0) -> "np.ndarray":
    """:func:`hash_block` over an ``int64`` block array, bit for bit.

    The blocks are viewed as ``uint64`` (two's complement, as the scalar
    form's ``& _MASK64`` reads a negative block), whose multiply wraps
    mod 2^64; the seed term is folded and masked in Python first.
    """
    x = blocks.view(np.uint64) + np.uint64((_GAMMA + seed * _MIX1) & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class SampleResult:
    """A sampled curve plus the sampling diagnostics that qualify it."""

    curve: MissRatioCurve
    sampled_refs: int
    sampled_blocks: int
    #: Effective sampling rate when the pass finished (fixed-size mode
    #: lowers it as the sample set overflows).
    final_rate: float
    seed: int


class ShardsEstimator:
    """Incremental SHARDS pass: feed address chunks, snapshot curves.

    Exactly one of ``rate`` (fixed-rate mode, ``0 < rate <= 1``) or
    ``max_blocks`` (fixed-size mode, bound on distinct sampled blocks)
    must be given.  The estimator is single-writer: one stream, fed in
    order; :meth:`result` may be called between any two chunks and does
    not disturb the pass.

    State is three structures over the live sampled blocks: the block ->
    last sampled position map, the ascending list of those positions
    (the LRU stack, read with ``bisect``) and, in fixed-size mode only,
    the max-hash eviction heap.  A block is pushed on its first sampled
    reference and, once evicted, its hash becomes the threshold so it
    is never sampled again; the heap therefore holds exactly the live
    blocks, and in fixed-size mode the state never exceeds
    ``3 × max_blocks`` entries.
    """

    def __init__(
        self,
        line_size: int = 64,
        sizes_lines: Optional[Sequence[int]] = None,
        *,
        rate: Optional[float] = None,
        max_blocks: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if (rate is None) == (max_blocks is None):
            raise ValueError("pass exactly one of rate= or max_blocks=")
        if rate is not None and not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if max_blocks is not None and max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        if not _is_pow2(line_size):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        self.line_size = line_size
        self.seed = seed
        self.max_blocks = max_blocks
        self.sizes: Tuple[int, ...] = (
            tuple(sizes_lines)
            if sizes_lines is not None
            else default_size_ladder(line_size)
        )
        self._threshold = int(rate * _FULL) if rate is not None else _FULL
        if self._threshold < 1:
            raise ValueError(f"rate {rate} is below the hash resolution")

        self._last_pos: Dict[int, int] = {}
        #: Ascending last sampled positions of the live blocks.
        self._marks: List[int] = []
        # Max-heap (negated) of (hash, block) for fixed-size evictions.
        self._heap: List[Tuple[int, int]] = []

        # Weighted per-size miss estimates, accumulated in the sample
        # domain.  ``sorted_sizes`` ascends so the inner loop can break.
        self._sorted_sizes = sorted(self.sizes)
        self._miss_weight = [0.0] * len(self._sorted_sizes)
        self._cold_weight = 0.0
        self._ref_weight = 0.0
        self._sampled_refs = 0
        self._total_refs = 0
        self._pos = 0  # position in the *sampled* substream (1-based)

    # ------------------------------------------------------------------
    # Introspection (the service's budget accounting reads these)
    # ------------------------------------------------------------------
    @property
    def total_refs(self) -> int:
        """References fed so far (sampled or not)."""
        return self._total_refs

    @property
    def sampled_refs(self) -> int:
        return self._sampled_refs

    @property
    def sampled_blocks(self) -> int:
        """Distinct blocks currently in the sample."""
        return len(self._last_pos)

    @property
    def final_rate(self) -> float:
        return self._threshold / _FULL

    def state_entries(self) -> int:
        """Upper-bound proxy for resident state, in dict/list/heap entries.

        Deliberately structural (entry counts, not bytes): the quantity
        the bounded-memory tests pin and the service budget divides by.
        """
        return len(self._last_pos) + len(self._marks) + len(self._heap)

    # ------------------------------------------------------------------
    # The pass
    # ------------------------------------------------------------------
    def feed(self, addresses: "np.ndarray | Iterable[int]") -> None:
        """Consume one chunk of byte addresses, in stream order."""
        blocks = _validated_blocks(addresses, self.line_size)
        self._total_refs += len(blocks)
        hashes = hash_blocks(blocks, self.seed)
        threshold = self._threshold
        # The threshold never rises, so this drops only references the
        # loop would skip; at 2^64 (which uint64 cannot hold) none.
        if threshold < _FULL:
            candidates = hashes < np.uint64(threshold)
            blocks = blocks[candidates]
            hashes = hashes[candidates]

        last_pos = self._last_pos
        marks = self._marks
        heap = self._heap
        sorted_sizes = self._sorted_sizes
        miss_weight = self._miss_weight
        max_blocks = self.max_blocks
        pos = self._pos
        scale = _FULL / threshold

        for block, h in zip(blocks.tolist(), hashes.tolist()):
            if h >= threshold:  # an eviction in this chunk lowered it
                continue
            self._sampled_refs += 1
            self._ref_weight += scale
            pos += 1
            prev = last_pos.get(block)
            if prev is None:
                self._cold_weight += scale
                if max_blocks is not None:
                    heapq.heappush(heap, (-h, block))
            else:
                # The referenced block itself is in the interval with
                # probability 1, not R, so only the other (d_s - 1)
                # distinct sampled blocks are rescaled:
                # E[(d_s-1)/R + 1] = D exactly.  The naive d_s/R
                # overestimates every distance by ~(1/R - 1) lines,
                # which is material at this repo's line-scale sizes.
                sample_distance = len(marks) - bisect_right(marks, prev) + 1
                estimated = (sample_distance - 1) * scale + 1.0
                for i, size in enumerate(sorted_sizes):
                    if estimated <= size:
                        break  # sizes ascend: every later size hits too
                    miss_weight[i] += scale
                del marks[bisect_left(marks, prev)]
            marks.append(pos)  # the largest position: the list stays sorted
            last_pos[block] = pos
            if max_blocks is not None and len(last_pos) > max_blocks:
                # Evict the largest-hash block and lower the threshold
                # to its hash: the adaptive half of SHARDS (fixed sample
                # size).
                neg_h, victim = heapq.heappop(heap)
                threshold = self._threshold = -neg_h
                scale = _FULL / threshold
                del marks[bisect_left(marks, last_pos.pop(victim))]
        self._pos = pos

    def result(self) -> SampleResult:
        """Snapshot the estimated curve over everything fed so far."""
        n = self._total_refs
        by_size = dict(zip(self._sorted_sizes, self._miss_weight))
        # Sample-domain ratios rescaled to full-trace counts (SHARDS_adj).
        adj = n / self._ref_weight if self._ref_weight else 0.0
        misses = tuple(
            min(n, int(round((self._cold_weight + by_size[size]) * adj)))
            for size in self.sizes
        )
        curve = MissRatioCurve(
            line_size=self.line_size,
            total_refs=n,
            cold_misses=int(round(self._cold_weight * adj)),
            sizes_lines=self.sizes,
            misses=misses,
            exact=False,
        )
        return SampleResult(
            curve=curve,
            sampled_refs=self._sampled_refs,
            sampled_blocks=len(self._last_pos),
            final_rate=self._threshold / _FULL,
            seed=self.seed,
        )


def sampled_curve(
    addresses: "np.ndarray | Iterable[int]",
    line_size: int = 64,
    sizes_lines: Optional[Sequence[int]] = None,
    *,
    rate: Optional[float] = None,
    max_blocks: Optional[int] = None,
    seed: int = 0,
) -> SampleResult:
    """Approximate MRC via SHARDS; exactly one of ``rate``/``max_blocks``.

    One-shot wrapper over :class:`ShardsEstimator`: constructs the
    estimator, feeds the whole stream, returns the result.
    """
    estimator = ShardsEstimator(
        line_size, sizes_lines, rate=rate, max_blocks=max_blocks, seed=seed
    )
    estimator.feed(addresses)
    return estimator.result()
