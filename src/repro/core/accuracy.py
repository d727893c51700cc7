"""Classification-accuracy measurement (Figures 1 and 2).

Two vectorised passes price a reference stream:

1. the L1 + MCT pass of :mod:`repro.system.vector` — the one the
   simulator and the service also run — marks every reference a hit or
   a miss, and every miss conflict or capacity as the MCT would, before
   the fill;
2. one exact stack-distance pass (:func:`repro.mrc.stack.stack_distances`)
   gives Hill's truth: a miss is **compulsory** on a first touch, and a
   true **conflict** when its fully-associative stack distance is within
   the cache's line count — by Mattson's inclusion property, exactly
   when a fully-associative LRU cache of equal capacity would have hit.

Every real-cache miss lands in a
:class:`~repro.cache.stats.ClassificationStats` confusion matrix, from
which the paper's *conflict accuracy* and *capacity accuracy* bars are
read directly.

The paper's grouping is honoured: compulsory misses count as capacity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats, ClassificationStats
from repro.mrc import stack
from repro.mrc.stack import COLD
from repro.system.simulator import Beat, MeasuredWindow
from repro.system.vector import l1_pass
from repro.workloads.trace import address_array


@dataclass
class AccuracyResult:
    """Everything one accuracy run produces."""

    geometry: CacheGeometry
    tag_bits: Optional[int]
    classification: ClassificationStats = field(default_factory=ClassificationStats)
    cache: CacheStats = field(default_factory=CacheStats)
    compulsory_misses: int = 0

    @property
    def conflict_accuracy(self) -> float:
        return self.classification.conflict_accuracy

    @property
    def capacity_accuracy(self) -> float:
        return self.classification.capacity_accuracy

    @property
    def overall_accuracy(self) -> float:
        return self.classification.overall_accuracy

    @property
    def miss_rate(self) -> float:
        return self.cache.miss_rate

    @property
    def conflict_fraction(self) -> float:
        """True conflict misses as a share of all misses, in percent."""
        total = self.classification.total
        return 100.0 * self.classification.true_conflicts / total if total else 0.0


def _accuracy_counters(result: AccuracyResult) -> dict:
    """Counter snapshot of an accuracy run, in the obs metrics shape."""
    return {
        "classification": asdict(result.classification),
        "cache": asdict(result.cache),
        "compulsory_misses": result.compulsory_misses,
    }


def _result_at(
    geometry: CacheGeometry, tag_bits: Optional[int], refs: int, counts: "np.ndarray"
) -> AccuracyResult:
    """The result over the first ``refs`` references, from per-row counts.

    ``counts`` follows the row order :func:`measure_accuracy` stacks:
    the four confusion cells, then compulsory misses, misses, evictions.
    """
    cc, c_cap, cap_cap, cap_c, compulsory, misses, evictions = (
        int(c) for c in counts
    )
    return AccuracyResult(
        geometry=geometry,
        tag_bits=tag_bits,
        classification=ClassificationStats(
            conflict_as_conflict=cc,
            conflict_as_capacity=c_cap,
            capacity_as_capacity=cap_cap,
            capacity_as_conflict=cap_c,
        ),
        cache=CacheStats(
            accesses=refs,
            hits=refs - misses,
            misses=misses,
            fills=misses,
            evictions=evictions,
        ),
        compulsory_misses=compulsory,
    )


def measure_accuracy(
    addresses: Iterable[int],
    geometry: CacheGeometry,
    *,
    tag_bits: Optional[int] = None,
) -> AccuracyResult:
    """Measure MCT classification accuracy over a reference stream.

    Parameters
    ----------
    addresses:
        Byte addresses of the data references, in program order (any
        iterable of integers in ``[0, 2**63)``, checked as
        :class:`~repro.workloads.trace.Trace` checks them; the stream
        starts cold).
    geometry:
        The cache configuration under study (Figure 1 sweeps four of
        these; Figure 2 fixes 16KB direct-mapped).
    tag_bits:
        Stored-tag width for the MCT; None stores the complete tag.

    Returns
    -------
    AccuracyResult
        Confusion matrix plus cache-level statistics.
    """
    blocks = address_array(addresses) >> geometry.offset_bits
    n = int(len(blocks))
    window = MeasuredWindow(
        bench="accuracy",
        policy=f"mct[{'full' if tag_bits is None else tag_bits}b]",
        refs=n,
        warmup=0,
    )

    hit, evict, _, predicted = l1_pass(blocks, None, geometry, tag_bits)
    # Through the module, so a wrapper on the stack kernel sees this pass.
    distances = stack.stack_distances(blocks)
    miss = ~hit
    cold = distances == COLD
    actual = miss & ~cold & (distances <= geometry.num_lines)
    rows = np.stack((
        actual & predicted,
        actual & ~predicted,
        miss & ~actual & ~predicted,
        miss & ~actual & predicted,
        cold,
        miss,
        evict,
    ))
    result = _result_at(geometry, tag_bits, n, np.count_nonzero(rows, axis=1))

    # Running counts, only when heartbeats read them.
    prefix = (
        np.cumsum(rows, axis=1, dtype=np.int64) if window.heartbeat_every else None
    )

    def beat(refs: int) -> Beat:
        # Accuracy-so-far over the references seen to this point.
        assert prefix is not None
        so_far = _result_at(geometry, tag_bits, refs, prefix[:, refs - 1])
        return _accuracy_counters(so_far), {
            "overall_accuracy": round(so_far.overall_accuracy, 4),
            "conflict_accuracy": round(so_far.conflict_accuracy, 4),
            "capacity_accuracy": round(so_far.capacity_accuracy, 4),
            "miss_rate": round(so_far.miss_rate, 4),
        }

    window.walk(beat)
    window.close(_accuracy_counters(result))
    # Misses partition exactly into conflict + capacity (compulsory
    # inside capacity) before the numbers can reach any table.
    from repro.harness.invariants import check_accuracy_result

    check_accuracy_result(result)
    return result


def sweep_tag_bits(
    addresses: list[int],
    geometry: CacheGeometry,
    bit_widths: Iterable[Optional[int]],
) -> list[AccuracyResult]:
    """Run :func:`measure_accuracy` once per stored-tag width (Figure 2).

    ``addresses`` must be a concrete list (it is replayed per width).
    """
    return [
        measure_accuracy(addresses, geometry, tag_bits=bits) for bits in bit_widths
    ]
