"""§5.6 extension experiment — associativity sweep.

"Many real workloads will still experience conflict misses with 4-way or
higher-associative caches ... the cache may benefit from using miss
classification as part of the cache line replacement algorithm."

For associativities 1/2/4/8 at the paper's 16KB capacity, this experiment
reports the suite's true conflict share, MCT accuracy, and the miss-rate
effect of the conflict-bit-biased replacement policy of
:mod:`repro.extensions.assoc_replacement`.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.core.accuracy import measure_accuracy
from repro.experiments.base import (
    DEFAULT_PARAMS,
    ExperimentParams,
    ExperimentResult,
    SECTION5_SUITE,
)
from repro.extensions.assoc_replacement import compare_assoc_replacement
from repro.workloads.spec_analogs import build

ASSOCIATIVITIES = (1, 2, 4, 8)

#: Capacity shared by every geometry in the sweep.
CAPACITY_BYTES = 16 * 1024
LINE_SIZE = 64


def run(params: ExperimentParams = DEFAULT_PARAMS) -> ExperimentResult:
    suite = params.bench_suite(SECTION5_SUITE)
    result = ExperimentResult(
        experiment_id="assoc",
        title="Associativity sweep: conflict share, MCT accuracy, biased "
        "replacement (16KB, suite average)",
        headers=[
            "assoc",
            "miss rate %",
            "conflict share %",
            "conf acc %",
            "cap acc %",
            "LRU miss %",
            "biased miss %",
        ],
        paper_reference="§5.6: conflict misses persist at higher "
        "associativity; bias replacement against capacity-miss lines",
    )

    traces = {name: build(name, params.n_refs, params.seed) for name in suite}
    for assoc in ASSOCIATIVITIES:
        geometry = CacheGeometry(
            size=CAPACITY_BYTES, assoc=assoc, line_size=LINE_SIZE
        )
        miss = share = lru = biased = 0.0
        cf_ok = cf_all = cp_ok = cp_all = 0
        for trace in traces.values():
            acc = measure_accuracy(trace.addresses, geometry)
            miss += acc.miss_rate
            share += acc.conflict_fraction
            c = acc.classification
            cf_ok += c.conflict_as_conflict
            cf_all += c.true_conflicts
            cp_ok += c.capacity_as_capacity
            cp_all += c.true_capacities
            cmp = compare_assoc_replacement(trace, geometry)
            lru += cmp.lru_miss_rate
            biased += cmp.biased_miss_rate
        n = len(traces)
        result.add_row(
            assoc,
            miss / n,
            share / n,
            100.0 * cf_ok / cf_all if cf_all else 0.0,
            100.0 * cp_ok / cp_all if cp_all else 0.0,
            lru / n,
            biased / n,
        )
    result.notes.append(
        "'LRU miss %' and 'biased miss %' come from the standalone "
        "replacement comparison (no assist buffer); at assoc 1 the bias "
        "has no choices to make, so the columns coincide."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.base import format_result

    print(format_result(run()))
