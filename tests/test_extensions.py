"""Tests for the §5.6 extensions."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.mct import MissClassificationTable
from repro.extensions.assoc_replacement import (
    ConflictBiasedReplacement,
    compare_assoc_replacement,
)
from repro.extensions.coscheduling import CoScheduleAdvisor, PairingReport
from repro.extensions.page_remap import (
    PageRemapper,
    RemapPolicy,
    simulate_remap,
)
from repro.workloads.spec_analogs import build
from repro.workloads.trace import Trace, merge_round_robin

GEO_DM = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
GEO_4W = CacheGeometry(size=16 * 1024, assoc=4, line_size=64)


class TestConflictBiasedReplacement:
    def _lines(self, *specs):
        out = []
        for touch, conflict in specs:
            line = CacheLine()
            line.fill(0, now=touch, conflict_bit=conflict)
            out.append(line)
        return out

    def test_prefers_capacity_lines(self):
        lines = self._lines((9, False), (1, True), (5, False))
        # LRU overall would pick way 1 (oldest), but it is conflict-marked;
        # among the capacity lines, way 2 is older.
        assert ConflictBiasedReplacement().choose_victim(lines) == 2

    def test_falls_back_to_lru_when_all_marked(self):
        lines = self._lines((9, True), (1, True), (5, True))
        assert ConflictBiasedReplacement().choose_victim(lines) == 1

    def test_prefers_invalid(self):
        lines = self._lines((9, False), (1, True))
        lines.append(CacheLine())
        assert ConflictBiasedReplacement().choose_victim(lines) == 2

    def test_bias_helps_stream_plus_pingpong(self):
        """A 4-way set shared by a hot ping-pong pair and a sweeping
        stream: biasing eviction against capacity (stream) lines protects
        the pair — the §5.6 scenario."""
        # 3 same-set hot lines + stream lines through the same sets.
        size = GEO_4W.size
        hot = [0x100000, 0x100000 + size, 0x100000 + 2 * size]
        trace_addrs = []
        stream_base = 0x800000
        pos = 0
        for _ in range(600):
            trace_addrs.extend(hot)
            for _ in range(4):  # streaming lines, same set as the hot trio
                trace_addrs.append(stream_base + pos * size)
                pos += 1
        result = compare_assoc_replacement(Trace(trace_addrs), GEO_4W)
        assert result.biased_miss_rate <= result.lru_miss_rate
        assert result.improvement >= 0

    def test_neutral_on_analog(self):
        """On a mixed analog the bias must not blow up the miss rate."""
        result = compare_assoc_replacement(build("gcc", 20_000), GEO_4W)
        assert result.biased_miss_rate < result.lru_miss_rate + 1.0


class TestPageRemap:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageRemapper(GEO_DM, RemapPolicy.NONE, page_size=1000)

    def test_translate_identity_before_remap(self):
        r = PageRemapper(GEO_DM, RemapPolicy.ALL_MISSES)
        assert r.translate(0x12345) == 0x12345

    def test_remap_changes_colour(self):
        r = PageRemapper(GEO_DM, RemapPolicy.ALL_MISSES, threshold=4)
        addr = 0x100000  # colour 0 (page 256 of 4 colours)
        for _ in range(4):
            r.note_miss(addr, is_conflict=True)
        assert r.remaps == 1
        translated = r.translate(addr)
        assert translated != addr
        # Offset within the page is preserved.
        assert translated & 0xFFF == addr & 0xFFF

    def test_conflict_only_ignores_capacity_misses(self):
        r = PageRemapper(GEO_DM, RemapPolicy.CONFLICT_ONLY, threshold=2)
        for _ in range(10):
            r.note_miss(0x100000, is_conflict=False)
        assert r.remaps == 0
        r.note_miss(0x100000, is_conflict=True)
        r.note_miss(0x100000, is_conflict=True)
        assert r.remaps == 1

    def test_none_policy_never_remaps(self):
        r = PageRemapper(GEO_DM, RemapPolicy.NONE, threshold=1)
        r.note_miss(0x100000, is_conflict=True)
        assert r.remaps == 0

    def test_remap_fixes_page_pingpong(self):
        """Two pages aliasing the same cache region: remapping one of them
        removes the conflict misses entirely."""
        a, b = 0x100000, 0x100000 + GEO_DM.size  # same colour, 4KB apart pages
        addrs = []
        for i in range(2000):
            off = (i % 64) * 64
            addrs += [a + off, b + off]
        base = simulate_remap(Trace(addrs), GEO_DM, RemapPolicy.NONE)
        remapped = simulate_remap(Trace(addrs), GEO_DM, RemapPolicy.CONFLICT_ONLY)
        assert remapped.miss_rate < base.miss_rate / 2
        assert remapped.remaps >= 1

    def test_conflict_filter_avoids_useless_remaps(self):
        """A pure streaming workload (capacity misses only): the filtered
        policy performs no remaps, the unfiltered one wastes many."""
        addrs = [0x400000 + i * 64 for i in range(6000)]
        unfiltered = simulate_remap(Trace(addrs), GEO_DM, RemapPolicy.ALL_MISSES)
        filtered = simulate_remap(Trace(addrs), GEO_DM, RemapPolicy.CONFLICT_ONLY)
        assert filtered.remaps == 0
        assert unfiltered.remaps > 10
        # And remapping buys nothing on capacity misses.
        assert unfiltered.miss_rate >= filtered.miss_rate - 0.5


class TestCoScheduling:
    def test_measure_pair_reports_conflicts(self):
        adv = CoScheduleAdvisor(GEO_DM)
        a = build("go", 8_000)
        b = build("li", 8_000)
        report = adv.measure_pair(a, b)
        assert report.jobs == ("go", "li")
        assert 0 < report.miss_rate < 100
        assert 0 <= report.conflict_miss_rate <= report.miss_rate

    def test_measure_all_counts_pairs(self):
        adv = CoScheduleAdvisor(GEO_DM)
        jobs = [build(n, 5_000) for n in ("go", "li", "gcc", "perl")]
        reports = adv.measure_all(jobs)
        assert len(reports) == 6

    def test_measure_all_rejects_duplicate_names(self):
        adv = CoScheduleAdvisor(GEO_DM)
        jobs = [build("go", 1_000), build("go", 1_000)]
        with pytest.raises(ValueError):
            adv.measure_all(jobs)

    def test_recommend_covers_all_jobs_once(self):
        adv = CoScheduleAdvisor(GEO_DM)
        names = ("go", "li", "gcc", "perl")
        adv.measure_all([build(n, 5_000) for n in names])
        schedule = adv.recommend(names)
        assert len(schedule) == 2
        assert sorted(j for pair in schedule for j in pair) == sorted(names)

    def test_recommend_requires_even_count(self):
        adv = CoScheduleAdvisor(GEO_DM)
        with pytest.raises(ValueError):
            adv.recommend(("a", "b", "c"))

    def test_recommend_requires_measurements(self):
        adv = CoScheduleAdvisor(GEO_DM)
        with pytest.raises(KeyError, match="not been measured"):
            adv.recommend(("a", "b"))

    def test_first_pair_has_lowest_conflicts(self):
        adv = CoScheduleAdvisor(GEO_DM)
        names = ("go", "li", "gcc", "perl")
        adv.measure_all([build(n, 5_000) for n in names])
        schedule = adv.recommend(names)
        first = adv.report_for(*schedule[0]).conflict_miss_rate
        second = adv.report_for(*schedule[1]).conflict_miss_rate
        # Greedy picks the globally least-conflicting pair first.
        all_rates = [
            adv.report_for(a, b).conflict_miss_rate
            for a, b in [("go", "li"), ("go", "gcc"), ("go", "perl"),
                         ("li", "gcc"), ("li", "perl"), ("gcc", "perl")]
        ]
        assert first == min(all_rates)
        assert first <= second


def reference_pairing(geometry, a, b):
    """A pair's report from a live set-LRU cache + MCT, reference by reference."""
    merged = merge_round_robin([a, b])
    mct = MissClassificationTable(geometry)
    cache = SetAssociativeCache(geometry, on_evict=mct.on_evict)
    conflicts = 0
    for addr in merged.addresses.tolist():
        if not cache.lookup(addr).hit:
            conflicts += mct.classify_is_conflict(addr)
            cache.fill(addr)
    n = cache.stats.accesses
    return PairingReport(
        jobs=(a.name, b.name),
        miss_rate=cache.stats.miss_rate,
        conflict_miss_rate=100.0 * conflicts / n if n else 0.0,
    )


@pytest.mark.parametrize(
    "geometry",
    [GEO_DM, GEO_4W, CacheGeometry(size=4 * 1024, assoc=2, line_size=64)],
    ids=["16k-dm", "16k-4way", "4k-2way"],
)
@pytest.mark.parametrize(
    "pair", [("go", "li"), ("tomcatv", "gcc"), ("swim", "compress")]
)
def test_measure_pair_matches_per_reference_cache(geometry, pair):
    a, b = (build(name, 6_000) for name in pair)
    report = CoScheduleAdvisor(geometry).measure_pair(a, b)
    assert report == reference_pairing(geometry, a, b)
