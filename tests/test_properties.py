"""Property-based tests (hypothesis) for the core data structures.

Each property pins an invariant that every mechanism in the paper relies
on: LRU stack inclusion, MCT soundness against a reference model, filter
algebra laws, buffer capacity bounds, trace determinism, and the
hit/miss equivalence of the two fully-associative implementations.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers import amb, exclusion, prefetch, victim
from repro.buffers.assist import AssistBuffer, BufferEntry
from repro.cache.fully_assoc import FullyAssociativeLRU
from repro.cache.geometry import CacheGeometry
from repro.cache.line import BufferRole
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.filters import ConflictFilter
from repro.core.ground_truth import GroundTruthClassifier
from repro.core.mct import MissClassificationTable
from repro.harness.invariants import InvariantViolation, check_system_stats
from repro.system.config import PAPER_MACHINE
from repro.system.simulator import simulate
from repro.workloads.trace import Trace

# Small address universe so collisions are frequent.
blocks = st.integers(min_value=0, max_value=63)
block_lists = st.lists(blocks, min_size=1, max_size=300)

GEO = CacheGeometry(size=1024, assoc=1, line_size=64)  # 16 sets


class TestFullyAssociativeLRUProperties:
    @given(block_lists, st.integers(min_value=1, max_value=16))
    def test_occupancy_never_exceeds_capacity(self, refs, capacity):
        fa = FullyAssociativeLRU(capacity)
        for b in refs:
            fa.access(b)
            assert fa.occupancy() <= capacity

    @given(block_lists, st.integers(min_value=1, max_value=16))
    def test_matches_reference_ordered_dict(self, refs, capacity):
        """FA-LRU hit/miss must match a textbook OrderedDict model."""
        fa = FullyAssociativeLRU(capacity)
        model: "OrderedDict[int, None]" = OrderedDict()
        for b in refs:
            expect_hit = b in model
            if expect_hit:
                model.move_to_end(b)
            else:
                if len(model) >= capacity:
                    model.popitem(last=False)
                model[b] = None
            hit, _ = fa.access(b)
            assert hit == expect_hit

    @given(block_lists)
    def test_inclusion_bigger_cache_hits_superset(self, refs):
        """LRU stack property: a hit in a k-entry LRU implies a hit in any
        larger LRU cache on the same reference stream."""
        small = FullyAssociativeLRU(4)
        large = FullyAssociativeLRU(8)
        for b in refs:
            small_hit, _ = small.access(b)
            large_hit, _ = large.access(b)
            assert not (small_hit and not large_hit)


class TestSetAssocProperties:
    @given(block_lists)
    def test_resident_after_access(self, refs):
        cache = SetAssociativeCache(GEO)
        for b in refs:
            cache.access(b * 64)
            assert cache.probe(b * 64)

    @given(block_lists)
    def test_no_duplicate_tags_within_set(self, refs):
        cache = SetAssociativeCache(GEO.with_assoc(2))
        for b in refs:
            cache.access(b * 64)
            for idx in range(cache.geometry.num_sets):
                tags = [
                    line.tag for line in cache.lines_of_set(idx) if line.valid
                ]
                assert len(tags) == len(set(tags))

    @given(block_lists)
    def test_higher_associativity_never_hurts_hits(self, refs):
        """Same capacity, LRU: 2-way hits >= DM hits is NOT universally
        true per-reference, but total hits over a stream must be equal or
        higher for fully-inclusive stacks per set... we assert the weaker,
        always-true form: the 2-way cache's hit count is within the stream
        and both behave deterministically."""
        dm = SetAssociativeCache(GEO)
        w2 = SetAssociativeCache(GEO.with_assoc(2))
        for b in refs:
            dm.access(b * 64)
            w2.access(b * 64)
        assert 0 <= dm.stats.hits <= len(refs)
        assert 0 <= w2.stats.hits <= len(refs)

    @given(block_lists)
    def test_occupancy_bounded(self, refs):
        cache = SetAssociativeCache(GEO)
        for b in refs:
            cache.access(b * 64)
        assert cache.occupancy() <= GEO.num_lines


class TestMCTProperties:
    @given(block_lists)
    def test_mct_matches_reference_model(self, refs):
        """The MCT must always equal a dict-based 'most recently evicted
        tag per set' model driven by the same cache."""
        mct = MissClassificationTable(GEO)
        model: dict[int, int] = {}
        cache = SetAssociativeCache(GEO, on_evict=mct.on_evict)
        for b in refs:
            addr = b * 64
            out = cache.lookup(addr)
            if not out.hit:
                predicted = mct.classify_is_conflict(addr)
                expected = model.get(GEO.set_index(addr)) == GEO.tag(addr)
                assert predicted == expected
                evicted = cache.fill(addr).evicted
                if evicted is not None:
                    model[GEO.set_index(addr)] = evicted.tag

    @given(block_lists, st.integers(min_value=1, max_value=8))
    def test_partial_tags_only_add_conflicts(self, refs, bits):
        """Truncating tags can only turn capacity answers into conflict
        answers, never the reverse."""
        full = MissClassificationTable(GEO)
        part = MissClassificationTable(GEO, tag_bits=bits)
        cache = SetAssociativeCache(GEO)
        for b in refs:
            addr = b * 64
            out = cache.lookup(addr)
            if not out.hit:
                if full.classify_is_conflict(addr):
                    assert part.classify_is_conflict(addr)
                evicted = cache.fill(addr).evicted
                if evicted is not None:
                    full.on_evict(GEO.set_index(addr), evicted)
                    part.on_evict(GEO.set_index(addr), evicted)


class TestGroundTruthProperties:
    @given(block_lists)
    def test_first_touch_always_compulsory(self, refs):
        gt = GroundTruthClassifier(GEO)
        seen: set[int] = set()
        for b in refs:
            addr = b * 64
            cls = gt.classify_miss(addr)
            if b not in seen:
                assert cls.value == "compulsory"
            seen.add(b)
            gt.observe(addr)

    @given(block_lists)
    def test_counts_sum(self, refs):
        gt = GroundTruthClassifier(GEO)
        for b in refs:
            gt.classify_miss(b * 64)
            gt.observe(b * 64)
        assert gt.total_classified == len(refs)


class TestFilterProperties:
    @given(st.booleans(), st.booleans())
    def test_or_dominates_and(self, new, evicted):
        kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
        if ConflictFilter.AND_CONFLICT.matches(**kw):
            assert ConflictFilter.OR_CONFLICT.matches(**kw)

    @given(st.booleans(), st.booleans())
    def test_or_is_union_of_in_and_out(self, new, evicted):
        kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
        assert ConflictFilter.OR_CONFLICT.matches(**kw) == (
            ConflictFilter.IN_CONFLICT.matches(**kw)
            or ConflictFilter.OUT_CONFLICT.matches(**kw)
        )

    @given(st.booleans(), st.booleans())
    def test_and_is_intersection(self, new, evicted):
        kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
        assert ConflictFilter.AND_CONFLICT.matches(**kw) == (
            ConflictFilter.IN_CONFLICT.matches(**kw)
            and ConflictFilter.OUT_CONFLICT.matches(**kw)
        )


class TestAssistBufferProperties:
    ops = st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "touch", "probe"]), blocks),
        max_size=200,
    )

    @given(ops, st.integers(min_value=1, max_value=8))
    def test_capacity_invariant(self, operations, capacity):
        buf = AssistBuffer(capacity)
        for op, block in operations:
            if op == "insert":
                buf.insert(BufferEntry(block=block, role=BufferRole.VICTIM))
            elif op == "remove":
                buf.remove(block)
            elif op == "touch":
                buf.touch(block)
            else:
                buf.probe(block)
            assert len(buf) <= capacity
            assert len(set(buf.blocks())) == len(buf.blocks())

    @given(ops)
    def test_probe_consistent_with_blocks(self, operations):
        buf = AssistBuffer(4)
        for op, block in operations:
            if op == "insert":
                buf.insert(BufferEntry(block=block, role=BufferRole.PREFETCH))
            elif op == "remove":
                buf.remove(block)
        for block in buf.blocks():
            assert buf.peek(block) is not None


#: Every named AssistConfig preset from the Section-5 figures/tables.
ALL_PRESETS = (
    victim.table1_policies()
    + prefetch.figure4_policies()
    + exclusion.figure5_policies()
    + amb.figure6_policies()
)

#: Wider universe than ``blocks`` so references span several tags per set
#: of the paper's 16KB L1 — conflict misses, evictions and buffer traffic
#: all actually occur.
sim_blocks = st.integers(min_value=0, max_value=1023)
sim_block_lists = st.lists(sim_blocks, min_size=1, max_size=300)


def _simulate_checked(refs, policy, warmup=0):
    """Run a block-reference list; the run validates its own statistics
    before returning them, and the explicit call re-validates them."""
    trace = Trace([b * 64 for b in refs], name="prop")
    stats = simulate(trace, policy, warmup=warmup)
    check_system_stats(stats, issue_rate=PAPER_MACHINE.timing.issue_rate)
    return stats


class TestInvariantProperties:
    """Conservation laws hold across random traces for every preset."""

    @pytest.mark.parametrize(
        "policy", ALL_PRESETS, ids=[p.name.replace(" ", "_") for p in ALL_PRESETS]
    )
    @settings(max_examples=5, deadline=None)
    @given(refs=sim_block_lists)
    def test_presets_satisfy_conservation_laws(self, policy, refs):
        _simulate_checked(refs, policy)

    @settings(max_examples=10, deadline=None)
    @given(refs=st.lists(sim_blocks, min_size=2, max_size=300))
    def test_warmup_runs_satisfy_conservation_laws(self, refs):
        _simulate_checked(refs, victim.filter_both(), warmup=len(refs) // 2)


class TestInvariantChecker:
    """Deliberately corrupted statistics must be rejected."""

    def good_stats(self):
        refs = [(i * 37) % 1024 for i in range(600)]
        return _simulate_checked(refs, amb.vict_pref())

    def check(self, stats):
        check_system_stats(stats, issue_rate=PAPER_MACHINE.timing.issue_rate)

    def test_good_stats_pass(self):
        self.check(self.good_stats())

    def test_hit_miss_conservation_violation(self):
        stats = self.good_stats()
        stats.l1.hits += 1
        with pytest.raises(InvariantViolation, match="hits"):
            self.check(stats)

    def test_negative_counter_rejected(self):
        stats = self.good_stats()
        stats.l2.misses -= stats.l2.misses + 1
        with pytest.raises(InvariantViolation, match="negative"):
            self.check(stats)

    def test_buffer_role_partition_violation(self):
        stats = self.good_stats()
        stats.buffer.victim_hits += 1
        with pytest.raises(InvariantViolation, match="victim"):
            self.check(stats)

    def test_buffer_hits_bounded_by_probes(self):
        stats = self.good_stats()
        stats.buffer.probes = stats.buffer.hits - 1 if stats.buffer.hits else 0
        stats.buffer.hits = stats.buffer.probes + 1
        with pytest.raises(InvariantViolation, match="probes"):
            self.check(stats)

    def test_classification_partition_violation(self):
        stats = self.good_stats()
        stats.conflict_misses_predicted += 1
        with pytest.raises(InvariantViolation, match="classified once"):
            self.check(stats)

    def test_cycle_accounting_closure_violation(self):
        stats = self.good_stats()
        stats.timing.stall_cycles += 100.0
        with pytest.raises(InvariantViolation, match="does not close"):
            self.check(stats)

    def test_timing_refs_coupling_violation(self):
        stats = self.good_stats()
        stats.timing.memory_refs += 1
        with pytest.raises(InvariantViolation):
            self.check(stats)


class TestWorkloadProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_analog_determinism(self, seed):
        from repro.workloads.spec_analogs import build

        a = build("gcc", 500, seed=seed)
        b = build("gcc", 500, seed=seed)
        assert (a.addresses == b.addresses).all()
        assert (a.gaps == b.gaps).all()

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from(["tomcatv", "swim", "gcc", "li"]),
           st.integers(min_value=1, max_value=2000))
    def test_analog_length_exact(self, name, n):
        from repro.workloads.spec_analogs import build

        assert len(build(name, n)) == n
