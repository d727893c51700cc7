"""§5.6 extension experiment — miss classification under cache sharing.

The paper argues (without measuring) that multithreaded caches make every
technique in the paper more valuable, because co-scheduled threads
manufacture conflicts no single program has.  This experiment quantifies
that on our analogs:

* per-pair sharing penalties (shared-mode vs solo miss rates),
* the conflict share of the shared cache's misses,
* how much of the penalty an Adaptive Miss Buffer (VictPref) recovers.

Not a paper figure; included because §5.6 names it the most promising
direction and the machinery is all here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.buffers.amb import vict_pref
from repro.experiments.base import (
    DEFAULT_PARAMS,
    ExperimentParams,
    ExperimentResult,
)
from repro.system.multithreaded import sharing_penalties, simulate_shared
from repro.system.policies import BASELINE
from repro.workloads.spec_analogs import build

#: Default co-run pairs: one conflict-prone, one streaming/irregular each.
DEFAULT_PAIRS: Sequence[Tuple[str, str]] = (
    ("tomcatv", "gcc"),
    ("turb3d", "compress"),
    ("swim", "vortex"),
    ("go", "li"),
)


def run(params: ExperimentParams = DEFAULT_PARAMS) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="sec56",
        title="Shared-cache co-runs: sharing penalty and AMB recovery",
        headers=[
            "pair",
            "solo miss %",
            "shared miss %",
            "penalty",
            "conflict share %",
            "shared+AMB miss %",
            "AMB recovery %",
        ],
        paper_reference="§5.6: multithreaded caches are conflict-prone and "
        "the paper's techniques 'apply to an even greater extent'",
    )

    warm = params.warmup / params.n_refs
    for a_name, b_name in DEFAULT_PAIRS:
        traces = [build(a_name, params.n_refs, params.seed),
                  build(b_name, params.n_refs, params.seed)]

        base_run = simulate_shared(traces, BASELINE, warmup_fraction=warm)
        penalties = sharing_penalties(
            traces, base_run, BASELINE, warmup_fraction=warm
        )
        solo = sum(p.solo_miss_rate for p in penalties) / 2
        shared = sum(p.shared_miss_rate for p in penalties) / 2
        conflict_share = (
            100.0
            * base_run.combined.conflict_misses_predicted
            / max(base_run.combined.l1.misses, 1)
        )

        amb_run = simulate_shared(traces, vict_pref(), warmup_fraction=warm)
        amb_threads = amb_run.threads
        amb_miss = sum(t.miss_rate for t in amb_threads) / 2
        penalty = shared - solo
        recovery = (
            100.0 * (shared - amb_miss) / penalty if penalty > 0 else 0.0
        )
        result.add_row(
            f"{a_name}+{b_name}",
            solo,
            shared,
            penalty,
            conflict_share,
            amb_miss,
            recovery,
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.base import format_result

    print(format_result(run()))
