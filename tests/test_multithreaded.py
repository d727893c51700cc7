"""Tests for the shared-cache multithreading system (§5.6)."""

import pytest

from repro.buffers.amb import vict_pref
from repro.system.multithreaded import (
    SharedRunResult,
    sharing_penalties,
    simulate_shared,
)
from repro.system.policies import BASELINE
from repro.workloads.spec_analogs import build
from repro.workloads.trace import Trace


class TestSimulateShared:
    def test_requires_threads(self):
        with pytest.raises(ValueError):
            simulate_shared([])

    def test_requires_unique_names(self):
        with pytest.raises(ValueError):
            simulate_shared([build("go", 100), build("go", 100)])

    def test_rejects_bad_warmup_fraction(self):
        with pytest.raises(ValueError):
            simulate_shared([build("go", 100)], warmup_fraction=1.0)

    def test_rejects_threads_with_nothing_to_measure(self):
        # Truncation to the shortest thread leaves nothing to measure:
        # refused with simulate()'s warmup error, not all-zero stats.
        with pytest.raises(ValueError, match="at least one"):
            simulate_shared([build("go", 100), Trace([], name="idle")])

    def test_per_thread_counters_sum_to_combined(self):
        traces = [build("go", 5_000), build("li", 5_000)]
        res = simulate_shared(traces, BASELINE)
        assert isinstance(res, SharedRunResult)
        total_accesses = sum(t.accesses for t in res.threads)
        assert total_accesses == res.combined.l1.accesses == 10_000
        assert sum(t.l1_hits for t in res.threads) == res.combined.l1.hits
        assert sum(t.misses for t in res.threads) == res.combined.l1.misses
        assert (
            sum(t.conflict_misses for t in res.threads)
            == res.combined.conflict_misses_predicted
        )

    def test_thread_lookup(self):
        res = simulate_shared([build("go", 1_000), build("li", 1_000)])
        assert res.thread("go").name == "go"
        with pytest.raises(KeyError):
            res.thread("gcc")

    def test_truncates_to_shortest(self):
        res = simulate_shared([build("go", 2_000), build("li", 500)])
        assert res.combined.l1.accesses == 1_000

    def test_warmup_fraction_discards_prefix(self):
        traces = [build("go", 4_000), build("li", 4_000)]
        res = simulate_shared(traces, BASELINE, warmup_fraction=0.5)
        assert res.combined.l1.accesses == 4_000  # second half only

    def test_sharing_manufactures_conflicts(self):
        """Two solo-quiet programs develop cross-thread conflicts when
        sharing — the §5.6 premise."""
        a, b = build("go", 8_000), build("li", 8_000)
        shared = simulate_shared([a, b], BASELINE, warmup_fraction=0.25)
        solo_conf = 0
        for t in (a, b):
            res = simulate_shared([t], BASELINE, warmup_fraction=0.25)
            solo_conf += res.combined.conflict_misses_predicted
        assert shared.combined.conflict_misses_predicted > solo_conf

    def test_amb_recovers_part_of_the_penalty(self):
        traces = [build("tomcatv", 8_000), build("gcc", 8_000)]
        base = simulate_shared(traces, BASELINE, warmup_fraction=0.25)
        amb = simulate_shared(traces, vict_pref(), warmup_fraction=0.25)
        base_miss = sum(t.miss_rate for t in base.threads)
        amb_miss = sum(t.miss_rate for t in amb.threads)
        assert amb_miss < base_miss


class TestSharingPenalties:
    def test_reports_per_thread(self):
        traces = [build("go", 6_000), build("li", 6_000)]
        shared = simulate_shared(traces, warmup_fraction=0.25)
        pens = sharing_penalties(traces, shared, warmup_fraction=0.25)
        assert [p.name for p in pens] == ["go", "li"]
        for p in pens:
            assert p.shared_miss_rate >= 0
            assert p.penalty == pytest.approx(
                p.shared_miss_rate - p.solo_miss_rate
            )

    def test_conflicting_pair_pays_a_penalty(self):
        # go and li both keep hot sets low in the index space; sharing a
        # DM cache forces cross-thread conflicts.
        traces = [build("go", 8_000), build("li", 8_000)]
        shared = simulate_shared(traces, warmup_fraction=0.25)
        pens = sharing_penalties(traces, shared, warmup_fraction=0.25)
        assert sum(p.penalty for p in pens) > 1.0


class TestExperimentModules:
    def test_sec56_runs(self):
        from repro.experiments.base import ExperimentParams
        from repro.experiments.sec56_multithreaded import run

        res = run(ExperimentParams(n_refs=6_000, warmup=2_000))
        assert len(res.rows) == 4
        penalty = res.headers.index("penalty")
        assert all(row[penalty] > -1.0 for row in res.rows)

    def test_assoc_sweep_runs(self):
        from repro.experiments.assoc_sweep import run
        from repro.experiments.base import ExperimentParams

        res = run(ExperimentParams(n_refs=8_000, warmup=0,
                                   suite=["tomcatv", "gcc"]))
        assert res.column("assoc") == [1, 2, 4, 8]
        # Conflict share falls with associativity but persists (§5.6).
        shares = res.column("conflict share %")
        assert shares[0] > shares[-1] > 0
        # Biased replacement never loses at higher associativity.
        lru = res.column("LRU miss %")
        biased = res.column("biased miss %")
        for i in (2, 3):  # 4-way, 8-way
            assert biased[i] <= lru[i] + 0.3

    def test_runner_registry_includes_extensions(self):
        from repro.harness.cells import VARIANTS

        assert "sec56" in VARIANTS
        assert "assoc" in VARIANTS
