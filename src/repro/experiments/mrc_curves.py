"""Miss-ratio curves with conflict decomposition (subsystem figure).

Not a figure from the paper: the paper fixes one 16KB geometry and asks
*which* misses are conflicts; this experiment sweeps capacity and shows
*where* conflicts live on the miss-ratio curve.  One exact stack pass
per benchmark yields the FA-LRU curve at every probed size, and the
decomposition replays the direct-mapped geometry per size to split real
misses into Hill's compulsory/capacity/conflict classes — the
"conflict-share band" between the real-cache curve and the FA curve.

``mrc.main`` runs the exact engine; ``mrc_sampled.main`` compares it
against SHARDS fixed-size sampling (1024 blocks), reporting per-size
absolute error.  Both emit ``mrc_start``/``mrc_point``/``mrc_end``
events when observability is active.

Chart hint: ``repro-experiments mrc --chart "conflict share %"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.base import (
    DEFAULT_PARAMS,
    ExperimentParams,
    ExperimentResult,
    SECTION5_SUITE,
)
from repro.mrc.curve import MissRatioCurve, curve_from_profile, default_size_ladder
from repro.mrc.decompose import ConflictSplit, conflict_decomposition
from repro.mrc.sampling import sampled_curve
from repro.mrc.stack import compute_profile
from repro.obs.mrc_events import MrcTicker, mrc_ticker
from repro.workloads.spec_analogs import build

#: Decomposition geometry: the paper's direct-mapped configuration.
DECOMPOSE_ASSOC = 1

#: Fixed-size SHARDS bound used by the sampled comparison (see the
#: error model in :mod:`repro.mrc.sampling`: ~1K sampled blocks keeps
#: mean absolute miss-ratio error around half a percent on this suite).
SAMPLE_MAX_BLOCKS = 1024


def _start_curve(
    bench: str, mode: str, refs: int, sizes: Sequence[int]
) -> Optional[MrcTicker]:
    """Open one curve's pass in the obs layer (if active), before its work."""
    ticker = mrc_ticker(bench=bench, mode=mode, refs=refs, sizes_lines=sizes)
    if ticker is not None:
        ticker.begin()
    return ticker


def _emit_curve(ticker: Optional[MrcTicker], curve: MissRatioCurve) -> None:
    """Report one finished curve's points and close its pass."""
    if ticker is None:
        return
    ratios = curve.miss_ratios()
    for i, size in enumerate(curve.sizes_lines):
        ticker.point(size, curve.misses[i], ratios[i])
    ticker.finish()


def _suite_traces(
    params: ExperimentParams, suite: List[str]
) -> Dict[str, "np.ndarray"]:
    return {
        name: build(name, params.n_refs, params.seed).addresses
        for name in suite
    }


def run_exact(params: ExperimentParams = DEFAULT_PARAMS) -> ExperimentResult:
    """Exact MRC + conflict decomposition, suite average per size."""
    suite = params.bench_suite(SECTION5_SUITE)
    result = ExperimentResult(
        experiment_id="mrc",
        title="Miss-ratio curve with conflict decomposition "
        "(direct-mapped, suite average)",
        headers=[
            "size KB",
            "FA miss %",
            "real miss %",
            "compulsory %",
            "capacity %",
            "conflict %",
            "conflict share %",
        ],
        paper_reference="subsystem figure (beyond the paper): capacity "
        "sweep of Hill's conflict share, cf. §3's fixed 16KB point",
    )
    traces = _suite_traces(params, suite)
    sizes = default_size_ladder()
    per_size: Dict[int, List[Tuple[float, ConflictSplit]]] = {s: [] for s in sizes}
    for name, addresses in traces.items():
        ticker = _start_curve(name, "exact", len(addresses), sizes)
        profile = compute_profile(addresses)
        curve = curve_from_profile(profile, sizes)
        _emit_curve(ticker, curve)
        splits = conflict_decomposition(
            addresses,
            assoc=DECOMPOSE_ASSOC,
            sizes_lines=sizes,
            profile=profile,
        )
        ratios = curve.miss_ratios()
        for ratio, split in zip(ratios, splits):
            per_size[split.size_lines].append((ratio, split))
    for size in sizes:
        entries = per_size[size]
        n = len(entries)
        fa = 100.0 * sum(r for r, _ in entries) / n
        refs = params.n_refs
        real = 100.0 * sum(s.misses for _, s in entries) / (n * refs)
        comp = 100.0 * sum(s.compulsory for _, s in entries) / (n * refs)
        cap = 100.0 * sum(s.capacity for _, s in entries) / (n * refs)
        conf = 100.0 * sum(s.conflict for _, s in entries) / (n * refs)
        share = sum(s.conflict_share for _, s in entries) / n
        result.add_row(
            size * 64 // 1024,
            round(fa, 2),
            round(real, 2),
            round(comp, 2),
            round(cap, 2),
            round(conf, 2),
            round(share, 1),
        )
    result.notes.append(
        "'conflict share %' is the band between the real (direct-mapped) "
        "curve and the FA curve, as a share of real misses; one exact "
        "stack pass per benchmark prices every size at once."
    )
    result.notes.append(
        "MRC passes use the full trace (no warmup split): cold misses "
        "are a class being measured, not noise to discard."
    )
    return result


def run_sampled(params: ExperimentParams = DEFAULT_PARAMS) -> ExperimentResult:
    """Exact vs SHARDS fixed-size curves, per-size absolute error."""
    suite = params.bench_suite(SECTION5_SUITE)
    result = ExperimentResult(
        experiment_id="mrc_sampled",
        title=f"SHARDS fixed-size ({SAMPLE_MAX_BLOCKS} blocks) vs exact "
        "MRC (suite average)",
        headers=[
            "size KB",
            "exact miss %",
            "sampled miss %",
            "mean abs err %",
            "max abs err %",
        ],
        paper_reference="subsystem validation: Waldspurger et al., "
        "FAST 2015 sampling against the exact Mattson pass",
    )
    sizes = default_size_ladder()
    exact_by_size = [0.0] * len(sizes)
    sampled_by_size = [0.0] * len(sizes)
    err_sum = [0.0] * len(sizes)
    err_max = [0.0] * len(sizes)
    for name, addresses in _suite_traces(params, suite).items():
        curve = curve_from_profile(compute_profile(addresses), sizes)
        ticker = _start_curve(name, "sampled", len(addresses), sizes)
        sample = sampled_curve(
            addresses,
            sizes_lines=sizes,
            max_blocks=SAMPLE_MAX_BLOCKS,
            seed=params.seed,
        )
        _emit_curve(ticker, sample.curve)
        exact_r = curve.miss_ratios()
        sampled_r = sample.curve.miss_ratios()
        for i in range(len(sizes)):
            err = abs(exact_r[i] - sampled_r[i])
            exact_by_size[i] += exact_r[i]
            sampled_by_size[i] += sampled_r[i]
            err_sum[i] += err
            err_max[i] = max(err_max[i], err)
    n = len(suite)
    for i, size in enumerate(sizes):
        result.add_row(
            size * 64 // 1024,
            round(100.0 * exact_by_size[i] / n, 2),
            round(100.0 * sampled_by_size[i] / n, 2),
            round(100.0 * err_sum[i] / n, 2),
            round(100.0 * err_max[i], 2),
        )
    result.notes.append(
        "Sampling hash is seeded from the params seed; identical params "
        "always reproduce the identical sampled curve."
    )
    return result
