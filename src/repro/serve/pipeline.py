"""The per-tenant incremental pipeline behind each service session.

One :class:`TenantPipeline` owns everything a session accumulates, and
all of it is constant-size once the session opens:

* a direct-mapped L1 with the paper's MCT — per set, the resident block
  and the block most recently evicted, carried from batch to batch
  through the simulator's own L1 + MCT pass
  (:func:`repro.system.vector._l1_direct_mapped_pass`), so each miss is
  classified against the set's last victim before the fill, exactly as
  the hardware (and the simulator) would;
* a fixed-size :class:`~repro.mrc.ShardsEstimator` — the sampled
  fully-associative model that prices Hill's definition of the same
  split, bounded by the tenant's byte budget.

The two classifiers answer the same question from opposite sides
(mechanism vs model), which is what makes the service's *verdict*
trustworthy: a victim cache is recommended only when both the MCT's
conflict share and the model-side share (actual miss rate vs the FA
miss ratio at equal capacity, per the MRC layer's decomposition) say
the misses are conflict-driven.

``feed`` is the hot path: the SHARDS feed plus one numpy L1 + MCT pass
per batch, with no per-reference Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.mrc.sampling import SampleResult, ShardsEstimator
from repro.system.vector import _l1_direct_mapped_pass, empty_l1_state, mct_tag_mask

#: Verdict thresholds.  ``victim_cache`` needs *both* classifiers to
#: call the stream conflict-heavy: the MCT share alone can be inflated
#: by partial-tag false matches or ping-pong patterns a tiny buffer
#: would not fix, and the model share alone can be sampling noise.
HW_CONFLICT_SHARE = 0.30
MODEL_CONFLICT_SHARE = 0.20
#: A stream missing this hard while the FA model *also* misses (model
#: share below the bar) is capacity-bound — more associativity will not
#: help, so the useful lever is exclusion/bypass (paper §5.3).
CAPACITY_MISS_RATE = 0.25
#: Below this many observed misses any share is statistically empty.
MIN_MISSES_FOR_VERDICT = 32


@dataclass(frozen=True)
class PipelineSnapshot:
    """Counters of a pipeline at one instant (all derivable fields)."""

    refs: int
    misses: int
    conflict_misses: int
    capacity_misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.refs if self.refs else 0.0

    @property
    def conflict_share(self) -> float:
        """Share of misses the MCT called conflict (0.0 when missless)."""
        return self.conflict_misses / self.misses if self.misses else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "refs": self.refs,
            "misses": self.misses,
            "conflict_misses": self.conflict_misses,
            "capacity_misses": self.capacity_misses,
            "miss_rate": self.miss_rate,
            "conflict_share": self.conflict_share,
        }


def _session_size_ladder(capacity_lines: int) -> Tuple[int, ...]:
    """Probe sizes bracketing the session's cache: C/8 .. 8C.

    The verdict needs the FA miss ratio *at* the cache's capacity; the
    neighbours up and down the ladder make the returned curve useful on
    its own (how much capacity would actually buy).
    """
    sizes = sorted(
        {
            max(1, capacity_lines >> shift)
            for shift in range(3, -1, -1)
        }
        | {capacity_lines << shift for shift in range(1, 4)}
    )
    return tuple(sizes)


class TenantPipeline:
    """Streaming MCT classification + sampled MRC for one session."""

    def __init__(
        self,
        *,
        cache_kb: int = 64,
        line_size: int = 64,
        max_blocks: int = 256,
        seed: int = 0,
        tag_bits: Optional[int] = None,
    ) -> None:
        if line_size < 2:
            # Wider lines keep every 64-bit address's block within int64.
            raise ValueError(f"line_size must be at least 2, got {line_size}")
        self.geometry = CacheGeometry(
            size=cache_kb * 1024, assoc=1, line_size=line_size
        )
        mct_tag_mask(tag_bits)  # raises below one bit, as the MCT does
        self.tag_bits = tag_bits
        self.max_blocks = max_blocks
        capacity_lines = self.geometry.num_lines
        self.estimator = ShardsEstimator(
            line_size,
            _session_size_ladder(capacity_lines),
            max_blocks=max_blocks,
            seed=seed,
        )
        self._capacity_lines = capacity_lines
        #: Per set: the resident block and the MCT's last victim block
        #: (-1 = empty), carried from batch to batch.
        self._resident, self._victim = empty_l1_state(self.geometry.num_sets)
        self.refs = 0
        self.misses = 0
        self.conflict_misses = 0
        self.capacity_misses = 0

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def feed(self, addresses: Sequence[int]) -> int:
        """Run one address batch through both classifiers; returns refs."""
        if len(addresses) == 0:
            return 0
        arr = np.asarray(addresses, dtype=np.uint64)
        self.estimator.feed(arr)
        blocks = (arr >> np.uint64(self.geometry.offset_bits)).astype(np.int64)
        (hit, _, _, conflict), (self._resident, self._victim) = (
            _l1_direct_mapped_pass(
                blocks, None, self.geometry, self.tag_bits,
                self._resident, self._victim,
            )
        )
        refs = int(len(blocks))
        misses = refs - int(np.count_nonzero(hit))
        conflicts = int(np.count_nonzero(conflict))
        self.refs += refs
        self.misses += misses
        self.conflict_misses += conflicts
        self.capacity_misses += misses - conflicts
        return refs

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshot(self) -> PipelineSnapshot:
        return PipelineSnapshot(
            refs=self.refs,
            misses=self.misses,
            conflict_misses=self.conflict_misses,
            capacity_misses=self.capacity_misses,
        )

    def mrc(self) -> SampleResult:
        """Current sampled FA miss-ratio curve (a snapshot, not a drain)."""
        return self.estimator.result()

    def fa_miss_ratio_at_capacity(self) -> float:
        """Sampled FA miss ratio at exactly the session cache's size."""
        result = self.estimator.result()
        ratios = result.curve.miss_ratios()
        index = result.curve.sizes_lines.index(self._capacity_lines)
        return ratios[index]

    def model_conflict_share(self) -> float:
        """Share of the actual miss rate the FA model would eliminate.

        The PR-5 decomposition read sideways: misses with FA stack
        distance within capacity are conflict misses, so
        ``1 - fa_ratio / miss_rate`` is the model's conflict share
        (clamped at 0 — sampling noise can put the FA ratio above the
        DM miss rate on conflict-free streams).
        """
        snap = self.snapshot()
        if snap.miss_rate == 0.0:
            return 0.0
        return max(0.0, 1.0 - self.fa_miss_ratio_at_capacity() / snap.miss_rate)

    def verdict(self) -> Dict[str, object]:
        """Recommendation for this stream, with the evidence attached."""
        snap = self.snapshot()
        model_share = self.model_conflict_share()
        hw_share = snap.conflict_share
        if snap.misses < MIN_MISSES_FOR_VERDICT:
            verdict = "none"
            reason = (
                f"only {snap.misses} miss(es) observed "
                f"(need {MIN_MISSES_FOR_VERDICT})"
            )
        elif hw_share >= HW_CONFLICT_SHARE and model_share >= MODEL_CONFLICT_SHARE:
            verdict = "victim_cache"
            reason = (
                f"MCT conflict share {hw_share:.2f} and model share "
                f"{model_share:.2f} both above threshold"
            )
        elif snap.miss_rate >= CAPACITY_MISS_RATE and model_share < MODEL_CONFLICT_SHARE:
            verdict = "bypass"
            reason = (
                f"miss rate {snap.miss_rate:.2f} is capacity-bound "
                f"(model share {model_share:.2f})"
            )
        else:
            verdict = "none"
            reason = (
                f"no dominant miss class (hw {hw_share:.2f}, "
                f"model {model_share:.2f}, miss rate {snap.miss_rate:.2f})"
            )
        return {
            "verdict": verdict,
            "reason": reason,
            "hw_conflict_share": hw_share,
            "model_conflict_share": model_share,
            "miss_rate": snap.miss_rate,
            "fa_miss_ratio_at_capacity": self.fa_miss_ratio_at_capacity(),
            "misses": snap.misses,
        }

    def state_entries(self) -> int:
        """Structural footprint proxy: fixed arrays + estimator state."""
        return 2 * self.geometry.num_sets + self.estimator.state_entries()
