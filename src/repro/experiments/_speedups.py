"""Shared machinery for the speedup-style experiments (Figs 3-6).

Runs a set of assist policies over the Section-5 suite and tabulates
per-benchmark speedups against a baseline policy, plus the arithmetic
average the paper's bar charts show.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cache.stats import SystemStats
from repro.experiments.base import ExperimentParams, ExperimentResult
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.policies import AssistConfig
from repro.system.simulator import mean, simulate_policies, speedup
from repro.workloads.spec_analogs import build


def run_policies_over_suite(
    policies: Sequence[AssistConfig],
    params: ExperimentParams,
    suite: Sequence[str],
    machine: MachineConfig = PAPER_MACHINE,
) -> Dict[str, Dict[str, SystemStats]]:
    """stats[bench][policy_name] for every (benchmark, policy) pair.

    Policy names must be unique, as :func:`simulate_policies` checks —
    a duplicate would silently drop one policy's column from every
    table built on top of this.
    """
    return {
        name: simulate_policies(
            build(name, params.n_refs, params.seed),
            policies,
            machine,
            warmup=params.warmup,
        )
        for name in suite
    }


def speedup_table(
    experiment_id: str,
    title: str,
    baseline: AssistConfig,
    policies: Sequence[AssistConfig],
    params: ExperimentParams,
    suite: Sequence[str],
    machine: MachineConfig = PAPER_MACHINE,
    paper_reference: str = "",
) -> ExperimentResult:
    """Per-benchmark speedup of each policy over ``baseline``."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["bench"] + [p.name for p in policies],
        paper_reference=paper_reference,
    )
    # Some figures show the baseline as its own bar (Figure 5's 'no
    # buffer'); don't simulate it a second time when it is already in
    # the policy list — but a *different* config hiding behind the
    # baseline's name would make every speedup wrong, so reject that.
    run_list = list(policies)
    if baseline.name in {p.name for p in run_list}:
        if not any(p == baseline for p in run_list):
            raise ValueError(
                f"policy named {baseline.name!r} differs from the baseline "
                "config of the same name"
            )
    else:
        run_list = [baseline] + run_list
    stats = run_policies_over_suite(run_list, params, suite, machine)
    columns: Dict[str, list[float]] = {p.name: [] for p in policies}
    for bench in suite:
        base = stats[bench][baseline.name]
        cells: list[object] = [bench]
        for p in policies:
            try:
                s = speedup(stats[bench][p.name], base)
            except ValueError as exc:
                # A zero-IPC cell would otherwise abort the whole figure
                # with no clue which (benchmark, policy) produced it.
                raise ValueError(
                    f"speedup of policy {p.name!r} on benchmark {bench!r} "
                    f"is undefined: {exc}"
                ) from exc
            columns[p.name].append(s)
            cells.append(s)
        result.add_row(*cells)
    result.add_row("AVERAGE", *[mean(columns[p.name]) for p in policies])
    return result
