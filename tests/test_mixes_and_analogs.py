"""Tests for the mixer and the SPEC95-analog workloads."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.workloads.mixes import Component, interleave, region_base
from repro.workloads.spec_analogs import (
    ACCURACY_SUITE,
    EVAL_SUITE,
    SUITE,
    build,
    build_suite,
)
from repro.workloads.streams import HotSetStream, StridedStream


class TestComponent:
    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Component(HotSetStream(base=0), weight=0)

    def test_rejects_bad_store_fraction(self):
        with pytest.raises(ValueError):
            Component(HotSetStream(base=0), store_fraction=1.5)


class TestInterleave:
    def comp(self, base, weight=1.0):
        return Component(StridedStream(base=base, stride=8, span=1 << 16), weight)

    def test_length_and_determinism(self):
        comps = [self.comp(0), self.comp(1 << 22)]
        t1 = interleave(comps, 1000, seed=3)
        t2 = interleave(comps, 1000, seed=3)
        assert len(t1) == 1000
        assert (t1.addresses == t2.addresses).all()
        assert (t1.is_load == t2.is_load).all()

    def test_different_seed_differs(self):
        comps = [self.comp(0), self.comp(1 << 22)]
        t1 = interleave(comps, 1000, seed=3)
        t2 = interleave(comps, 1000, seed=4)
        assert (t1.addresses != t2.addresses).any()

    def test_weights_respected(self):
        heavy = Component(HotSetStream(base=0, size=1024), weight=9.0)
        light = Component(HotSetStream(base=1 << 22, size=1024), weight=1.0)
        t = interleave([heavy, light], 8000, seed=0)
        heavy_frac = (t.addresses < (1 << 22)).mean()
        assert 0.8 < heavy_frac < 0.98

    def test_gaps_follow_stream(self):
        fast = Component(HotSetStream(base=0, size=1024, gap=2))
        t = interleave([fast], 100, seed=0)
        assert (t.gaps == 2).all()

    def test_store_fraction_zero_means_all_loads(self):
        c = Component(HotSetStream(base=0, size=1024), store_fraction=0.0)
        t = interleave([c], 500, seed=0)
        assert t.is_load.all()

    def test_store_fraction_mixes_stores(self):
        c = Component(HotSetStream(base=0, size=1024), store_fraction=0.5)
        t = interleave([c], 2000, seed=0)
        frac = 1.0 - t.is_load.mean()
        assert 0.4 < frac < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            interleave([], 10)
        with pytest.raises(ValueError):
            interleave([self.comp(0)], -1)
        with pytest.raises(ValueError):
            interleave([self.comp(0)], 10, chunk=0)


class TestRegionBase:
    def test_distinct_regions(self):
        bases = [region_base(i) for i in range(8)]
        assert len(set(b >> 22 for b in bases)) == 8

    def test_default_skew_varies(self):
        g = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
        sets = {g.set_index(region_base(i)) for i in range(4)}
        assert len(sets) == 4

    def test_explicit_set_offset(self):
        g = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
        assert g.set_index(region_base(3, set_offset=192)) == 192

    def test_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            region_base(-1)


class TestSuite:
    def test_registry_covers_17_benchmarks(self):
        assert len(SUITE) == 17
        assert set(EVAL_SUITE) <= set(ACCURACY_SUITE) == set(SUITE)

    def test_every_benchmark_builds(self):
        for name in SUITE:
            t = build(name, 2000)
            assert len(t) == 2000
            assert t.name == name

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            build("spice", 100)

    def test_build_suite_defaults_to_eval(self):
        traces = build_suite(n_refs=500)
        assert set(traces) == set(EVAL_SUITE)

    def test_determinism(self):
        a = build("tomcatv", 5000, seed=1)
        b = build("tomcatv", 5000, seed=1)
        assert (a.addresses == b.addresses).all()

    def test_category_metadata(self):
        assert SUITE["tomcatv"].category == "fp"
        assert SUITE["gcc"].category == "int"


class TestCalibration:
    """The analogs' contract with the paper's methodology."""

    GEO = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)

    def _miss_rate(self, name, n=30_000):
        from repro.cache.set_assoc import SetAssociativeCache

        cache = SetAssociativeCache(self.GEO)
        for addr in build(name, n).addresses:
            cache.access(int(addr))
        return cache.stats.miss_rate

    def test_tomcatv_is_memory_hungry(self):
        assert self._miss_rate("tomcatv") > 30  # paper: ~38%

    def test_m88ksim_is_not(self):
        assert self._miss_rate("m88ksim") < 6

    def test_suite_has_conflict_and_capacity_mix(self):
        """Every EVAL benchmark must show a nontrivial mix of both miss
        kinds — the paper's selection criterion for Section 5."""
        from repro.core.accuracy import measure_accuracy

        for name in EVAL_SUITE:
            t = build(name, 30_000)
            res = measure_accuracy(t.addresses, self.GEO)
            assert 4.0 < res.conflict_fraction < 96.0, name
