"""Miss-ratio-curve subsystem: one stack pass, every cache size.

Public surface:

* :func:`~repro.mrc.stack.compute_profile` /
  :class:`~repro.mrc.stack.StackProfile` — exact single-pass Mattson
  stack distances (vectorised inversion counting; the Bennett-Kruskal
  Fenwick form survives as
  :func:`~repro.mrc.stack.compute_profile_reference`).
* :func:`~repro.mrc.curve.compute_mrc` /
  :class:`~repro.mrc.curve.MissRatioCurve` — FA-LRU miss counts at
  every probed capacity, byte-identical to per-size simulation.
* :func:`~repro.mrc.sampling.sampled_curve` — SHARDS fixed-rate and
  fixed-size spatial sampling (seeded, deterministic).
* :func:`~repro.mrc.decompose.conflict_decomposition` /
  :class:`~repro.mrc.decompose.ConflictSplit` — Hill's per-size
  compulsory/capacity/conflict split, consistent with
  :mod:`repro.core.ground_truth`.

Hill's per-miss ground truth for the accuracy figures reads the same
stack distances directly (:func:`repro.core.accuracy.measure_accuracy`).
"""

from repro.mrc.curve import (
    MissRatioCurve,
    brute_force_fa_misses,
    compute_mrc,
    curve_from_profile,
    default_size_ladder,
)
from repro.mrc.decompose import (
    ConflictSplit,
    conflict_decomposition,
    decompose_size,
)
from repro.mrc.sampling import (
    SampleResult,
    ShardsEstimator,
    hash_block,
    sampled_curve,
)
from repro.mrc.stack import (
    COLD,
    StackProfile,
    compute_profile,
    compute_profile_reference,
)

__all__ = [
    "COLD",
    "ConflictSplit",
    "MissRatioCurve",
    "SampleResult",
    "ShardsEstimator",
    "StackProfile",
    "brute_force_fa_misses",
    "compute_mrc",
    "compute_profile",
    "compute_profile_reference",
    "conflict_decomposition",
    "curve_from_profile",
    "decompose_size",
    "default_size_ladder",
    "hash_block",
    "sampled_curve",
]
