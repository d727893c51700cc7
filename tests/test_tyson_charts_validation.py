"""Tests for the Tyson predictor, ASCII charts, and workload validation."""

import pytest

from repro.buffers.tyson import TysonPredictor, TysonResult, simulate_tyson
from repro.cache.geometry import CacheGeometry
from repro.experiments.base import ExperimentResult
from repro.experiments.charts import bar_chart
from repro.workloads.spec_analogs import build
from repro.workloads.trace import Trace

GEO = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)


class TestTysonPredictor:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TysonPredictor(entries=100)
        with pytest.raises(ValueError):
            TysonPredictor(threshold=5, max_count=3)

    def test_cold_pc_does_not_bypass(self):
        p = TysonPredictor()
        assert not p.should_bypass(0x400000)

    def test_saturating_misses_trigger_bypass(self):
        p = TysonPredictor()
        for _ in range(3):
            p.record(0x400000, hit=False)
        assert p.should_bypass(0x400000)

    def test_hits_pull_back(self):
        p = TysonPredictor()
        for _ in range(3):
            p.record(0x400000, hit=False)
        p.record(0x400000, hit=True)
        assert not p.should_bypass(0x400000)

    def test_tag_replacement_resets(self):
        p = TysonPredictor(entries=4)
        pc_a = 0x400000
        pc_b = pc_a + 4 * 4  # same slot in a 4-entry table
        for _ in range(3):
            p.record(pc_a, hit=False)
        p.record(pc_b, hit=False)
        assert not p.should_bypass(pc_a)

    def test_simulate_protects_cache_from_streaming_pc(self):
        """A streaming load (always misses) gets excluded; an established
        hot load's data stays cached.  The hot load runs alone first so
        its predictor entry reflects its true (hitting) behaviour."""
        hot_pc, stream_pc = 0x400000, 0x400004
        addrs, pcs = [], []
        for i in range(96):                          # warm the hot loop
            addrs.append(0x100000 + (i % 32) * 64)
            pcs.append(hot_pc)
        for i in range(4000):
            addrs.append(0x100000 + (i % 32) * 64)   # hot 2KB
            pcs.append(hot_pc)
            addrs.append(0x800000 + i * 64)          # endless stream
            pcs.append(stream_pc)
        res = simulate_tyson(Trace(addrs, pcs=pcs), GEO)
        assert isinstance(res, TysonResult)
        assert res.bypasses > 3000          # the stream got excluded
        assert res.d_hit_rate > 40          # hot data survived

    def test_cold_start_death_spiral_is_real(self):
        """Without a warm-up phase, a stream that immediately evicts the
        hot load's few cached lines starves the predictor of hits — the
        known pathology of always-updated PC predictors (one reason the
        paper prefers the miss-only MCT)."""
        hot_pc, stream_pc = 0x400000, 0x400004
        addrs, pcs = [], []
        for i in range(2000):
            addrs.append(0x100000 + (i % 32) * 64)
            pcs.append(hot_pc)
            addrs.append(0x800000 + i * 64)
            pcs.append(stream_pc)
        res = simulate_tyson(Trace(addrs, pcs=pcs), GEO)
        assert res.d_hit_rate < 5.0

    def test_simulate_on_analog_runs(self):
        res = simulate_tyson(build("compress", 10_000), GEO)
        assert 0 < res.total_hit_rate < 100


class TestCharts:
    def _result(self):
        r = ExperimentResult("figX", "demo", headers=["bench", "speedup"])
        r.add_row("gcc", 1.10)
        r.add_row("li", 0.95)
        r.add_row("AVERAGE", 1.02)
        return r

    def test_bar_chart_contains_rows_and_values(self):
        text = bar_chart(self._result(), "speedup")
        assert "gcc" in text and "1.10" in text
        assert text.count("|") == 3

    def test_baseline_marks_below(self):
        text = bar_chart(self._result(), "speedup", baseline=1.0)
        assert "(below)" in text          # li is under the baseline
        assert text.count("(below)") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(ValueError):
            bar_chart(self._result(), "nope")

    def test_non_numeric_column_raises(self):
        r = ExperimentResult("figX", "demo", headers=["bench", "label"])
        r.add_row("gcc", "hello")
        with pytest.raises(ValueError):
            bar_chart(r, "label")


class TestValidation:
    def test_all_analogs_validate(self):
        from repro.workloads.validation import validate_suite

        reports = validate_suite(n_refs=20_000)
        bad = [r for r in reports if not r.ok]
        assert not bad, [(r.name, r.problems) for r in bad]

    def test_report_fields(self):
        from repro.workloads.validation import validate

        r = validate("go", n_refs=10_000)
        assert r.name == "go"
        assert r.ok
        assert 0 < r.miss_rate < 100
