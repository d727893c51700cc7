"""Tests for the shared speedup-experiment machinery."""

import pytest

from repro.buffers.victim import no_victim_cache, traditional
from repro.experiments._speedups import run_policies_over_suite, speedup_table
from repro.experiments.base import ExperimentParams

PARAMS = ExperimentParams(n_refs=6_000, warmup=2_000, suite=["go", "li"])


class TestRunPoliciesOverSuite:
    def test_shape(self):
        policies = [no_victim_cache(), traditional()]
        stats = run_policies_over_suite(policies, PARAMS, ["go", "li"])
        assert set(stats) == {"go", "li"}
        assert set(stats["go"]) == {"no V cache", "V cache"}

    def test_fresh_system_per_cell(self):
        policies = [traditional()]
        stats = run_policies_over_suite(policies, PARAMS, ["go", "li"])
        # Each run's access count equals the measured window, proving no
        # state leaked across benchmarks.
        measured = PARAMS.n_refs - PARAMS.warmup
        assert stats["go"]["V cache"].l1.accesses == measured
        assert stats["li"]["V cache"].l1.accesses == measured

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate policy name"):
            run_policies_over_suite([traditional(), traditional()], PARAMS, ["go"])


class TestSpeedupTable:
    def test_structure_and_average(self):
        result = speedup_table(
            experiment_id="t",
            title="t",
            baseline=no_victim_cache(),
            policies=[traditional()],
            params=PARAMS,
            suite=["go", "li"],
        )
        assert result.headers == ["bench", "V cache"]
        names = [row[0] for row in result.rows]
        assert names == ["go", "li", "AVERAGE"]
        per_bench = [float(r[1]) for r in result.rows[:-1]]
        avg = float(result.rows[-1][1])
        assert avg == pytest.approx(sum(per_bench) / len(per_bench))

    def test_baseline_speedup_is_positive(self):
        result = speedup_table(
            experiment_id="t",
            title="t",
            baseline=no_victim_cache(),
            policies=[no_victim_cache().renamed("again")],
            params=PARAMS,
            suite=["go"],
        )
        # A policy identical to the baseline must land at exactly 1.0.
        assert float(result.rows[0][1]) == pytest.approx(1.0)


class TestAssistConfigHelpers:
    def test_renamed_preserves_everything_else(self):
        cfg = traditional().renamed("other")
        assert cfg.name == "other"
        assert cfg.victim_fills
        assert cfg.buffer_entries == traditional().buffer_entries

    def test_with_entries(self):
        cfg = traditional().with_entries(32)
        assert cfg.buffer_entries == 32
        assert cfg.victim_fills
