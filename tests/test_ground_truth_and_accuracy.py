"""Tests for the Hill-definition oracle and the accuracy harness."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import ClassificationStats
from repro.core.accuracy import measure_accuracy, sweep_tag_bits
from repro.core.classification import MissClass
from repro.core.ground_truth import GroundTruthClassifier
from repro.core.mct import MissClassificationTable
from repro.workloads.spec_analogs import build


def reference_accuracy(addresses, geometry, tag_bits=None, every=0):
    """Per-reference accuracy loop: set-LRU cache + MCT + simulating oracle.

    The straight-line model :func:`measure_accuracy` must reproduce:
    each miss is classified by the MCT and by Hill's fully-associative
    oracle before the fill.  Returns the final counters (in the obs
    metrics shape) and the counters after every ``every``-th reference.
    """
    mct = MissClassificationTable(geometry, tag_bits=tag_bits)
    cache = SetAssociativeCache(geometry, name="reference-L1", on_evict=mct.on_evict)
    oracle = GroundTruthClassifier(geometry)
    classification = ClassificationStats()
    compulsory = 0

    def counters():
        return {
            "classification": asdict(classification),
            "cache": asdict(cache.stats),
            "compulsory_misses": compulsory,
        }

    beats = []
    for done, addr in enumerate(addresses, start=1):
        if not cache.lookup(addr).hit:
            predicted = mct.classify(addr)
            actual = oracle.classify_miss(addr)
            classification.record(
                predicted_conflict=predicted.is_conflict,
                actual_conflict=actual.is_conflict,
            )
            compulsory += actual is MissClass.COMPULSORY
            cache.fill(addr)
        oracle.observe(addr)
        if every and done % every == 0:
            beats.append(counters())
    return counters(), beats


def result_counters(result):
    return {
        "classification": asdict(result.classification),
        "cache": asdict(result.cache),
        "compulsory_misses": result.compulsory_misses,
    }


class TestGroundTruth:
    def test_first_touch_is_compulsory(self, tiny):
        gt = GroundTruthClassifier(tiny)
        assert gt.classify_miss(0x1000) is MissClass.COMPULSORY
        gt.observe(0x1000)

    def test_conflict_when_fa_would_hit(self, tiny):
        """Ping-pong in one set of a 4-line cache: FA keeps both lines."""
        gt = GroundTruthClassifier(tiny)
        a = 0x1000
        b = a + tiny.size
        for addr in (a, b):
            gt.classify_miss(addr)
            gt.observe(addr)
        # Second round: both lines are FA-resident -> conflict.
        assert gt.classify_miss(a) is MissClass.CONFLICT
        gt.observe(a)
        assert gt.classify_miss(b) is MissClass.CONFLICT

    def test_capacity_when_fa_would_miss(self, tiny):
        """A sweep longer than the whole cache: revisits are capacity."""
        gt = GroundTruthClassifier(tiny)
        lines = tiny.num_lines
        sweep = [0x1000 + i * tiny.line_size for i in range(lines * 3)]
        for addr in sweep:
            gt.classify_miss(addr)
            gt.observe(addr)
        assert gt.classify_miss(sweep[0]) is MissClass.CAPACITY

    def test_counters(self, tiny):
        gt = GroundTruthClassifier(tiny)
        gt.classify_miss(0x1000)
        gt.observe(0x1000)
        assert gt.miss_breakdown() == {
            "compulsory": 1,
            "conflict": 0,
            "capacity": 0,
        }
        assert gt.total_classified == 1


class TestAccuracyHarness:
    def test_pure_ping_pong_is_perfectly_classified(self, dm16k, ping_pong):
        res = measure_accuracy(ping_pong.addresses, dm16k)
        # After the two compulsory misses, every miss is a true conflict
        # and the MCT catches every one of them.
        assert res.conflict_accuracy == 100.0
        assert res.classification.true_conflicts == len(ping_pong) - 2
        assert res.compulsory_misses == 2

    def test_pure_streaming_is_capacity(self, dm16k):
        addrs = [0x100000 + i * 64 for i in range(2000)] * 2
        res = measure_accuracy(addrs, dm16k)
        assert res.classification.true_conflicts == 0
        assert res.capacity_accuracy == 100.0
        assert res.miss_rate == 100.0

    def test_hits_are_not_classified(self, dm16k):
        addrs = [0x1000, 0x1000, 0x1000]
        res = measure_accuracy(addrs, dm16k)
        assert res.classification.total == 1
        assert res.cache.hits == 2

    def test_conflict_fraction(self, dm16k, ping_pong):
        res = measure_accuracy(ping_pong.addresses, dm16k)
        assert res.conflict_fraction > 90

    def test_two_way_cache_accuracy(self, w2_16k):
        """Three-way ping-pong in a 2-way cache: conflicts identified."""
        a = 0x100000
        addrs = [a, a + w2_16k.size, a + 2 * w2_16k.size] * 30
        res = measure_accuracy(addrs, w2_16k)
        assert res.conflict_accuracy == 100.0

    def test_sweep_tag_bits_shapes(self, dm16k):
        addrs = ([0x100000, 0x100000 + dm16k.size] * 30
                 + [0x200000 + i * 64 for i in range(600)])
        results = sweep_tag_bits(addrs, dm16k, [1, 8, None])
        assert len(results) == 3
        # Fewer bits can only shift classifications toward conflict:
        # capacity accuracy must be monotonically non-decreasing in bits.
        caps = [r.capacity_accuracy for r in results]
        assert caps[0] <= caps[1] <= caps[2]
        # Conflict accuracy is never hurt by fewer bits.
        confs = [r.conflict_accuracy for r in results]
        assert confs[0] >= confs[2]

    def test_deterministic(self, dm16k, ping_pong):
        r1 = measure_accuracy(ping_pong.addresses, dm16k)
        r2 = measure_accuracy(ping_pong.addresses, dm16k)
        assert r1.classification == r2.classification


class TestAccuracyMatchesReferenceLoop:
    """The two vectorised passes == the per-reference loop, field for field."""

    @settings(max_examples=120, deadline=None)
    @given(
        blocks=st.one_of(
            st.lists(st.integers(min_value=0, max_value=95), max_size=8),
            st.lists(st.integers(min_value=0, max_value=95), min_size=40, max_size=400),
        ),
        assoc=st.sampled_from([1, 2, 4, 8]),
        tag_bits=st.sampled_from([None, 1, 2, 4, 8]),
    )
    def test_random_streams(self, blocks, assoc, tag_bits):
        # 16 lines: 96 blocks overflow it, and 1-2 bit tags alias.
        geometry = CacheGeometry(size=1024, assoc=assoc, line_size=64)
        addrs = [block * 64 + block % 64 for block in blocks]
        result = measure_accuracy(addrs, geometry, tag_bits=tag_bits)
        expected, _ = reference_accuracy(addrs, geometry, tag_bits)
        assert result_counters(result) == expected

    @pytest.mark.parametrize("assoc", [1, 2, 8])
    @pytest.mark.parametrize("bench", ["tomcatv", "gcc"])
    def test_suite_traces(self, bench, assoc):
        geometry = CacheGeometry(size=16 * 1024, assoc=assoc, line_size=64)
        addrs = build(bench, 4_000, 2).addresses.tolist()
        for tag_bits in (None, 3):
            result = measure_accuracy(addrs, geometry, tag_bits=tag_bits)
            expected, _ = reference_accuracy(addrs, geometry, tag_bits)
            assert result_counters(result) == expected, tag_bits

    def test_empty_and_one_shot_iterables(self, dm16k, w2_16k):
        for geometry in (dm16k, w2_16k):
            empty = measure_accuracy(iter([]), geometry)
            assert result_counters(empty) == reference_accuracy([], geometry)[0]
            assert empty.cache.accesses == 0 and empty.overall_accuracy == 0.0
        addrs = [0x1000, 0x1000 + dm16k.size, 0x1000] * 5
        streamed = measure_accuracy((a for a in addrs), dm16k)
        assert result_counters(streamed) == reference_accuracy(addrs, dm16k)[0]

    def test_zero_tag_bits_raise(self, dm16k):
        # The MCT refuses a zero-width stored tag; so does the pass.
        for addrs in ([], [0x1000]):
            with pytest.raises(ValueError, match="tag_bits"):
                measure_accuracy(addrs, dm16k, tag_bits=0)

    def test_rejects_the_addresses_a_trace_rejects(self, dm16k):
        # -64 >> 6 is block -1, the direct-mapped pass's empty-set
        # sentinel: unchecked, the first reference to a cold cache hit.
        assert measure_accuracy([0, 64, 128], dm16k).miss_rate == 100.0
        with pytest.raises(ValueError, match=r"addresses must lie in \[0, "):
            measure_accuracy([-64, 0, 64], dm16k)
        with pytest.raises(ValueError, match="addresses must be integers"):
            measure_accuracy([1.7, 65.2], dm16k)
