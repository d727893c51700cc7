"""Tests for the miss-ratio-curve subsystem (``repro.mrc``).

The contract, from strongest to weakest:

* the vectorised stack engine is *bit-identical* to the independently
  derived Bennett-Kruskal Fenwick form, and both are byte-identical to
  simulating a fully-associative LRU cache at every probed size;
* the conflict decomposition reproduces the simulating
  :class:`~repro.core.ground_truth.GroundTruthClassifier`
  count-for-count;
* SHARDS sampling is result-for-result identical to a Fenwick-tree
  form of the same pass, deterministic from its seed, and lands within
  the documented tolerance at the documented operating point
  (fixed-size 1024 blocks).
"""

from __future__ import annotations

import heapq
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.ground_truth import GroundTruthClassifier
from repro.mrc import (
    COLD,
    ShardsEstimator,
    brute_force_fa_misses,
    compute_mrc,
    compute_profile,
    compute_profile_reference,
    conflict_decomposition,
    curve_from_profile,
    decompose_size,
    default_size_ladder,
    hash_block,
    sampled_curve,
    sampling,
)
from repro.mrc.cli import main as mrc_main
from repro.mrc.curve import MissRatioCurve
from repro.mrc.decompose import ConflictSplit
from repro.mrc.sampling import SampleResult, hash_blocks
from repro.mrc.stack import _Fenwick, set_lru_flags, set_order
from repro.workloads.spec_analogs import EVAL_SUITE, build

# Small universes so short traces still collide and revisit.
blocks = st.integers(min_value=0, max_value=63)
block_lists = st.lists(blocks, min_size=0, max_size=300)
# Runs of one block: a uniform draw repeats the previous block 1 time in
# 64, so the stack layer's continuation paths need their own strategy.
run_lists = st.lists(
    st.tuples(blocks, st.integers(min_value=1, max_value=20)), max_size=40
).map(lambda runs: [block for block, length in runs for _ in range(length)])
STREAMS = pytest.mark.parametrize(
    "stream", [block_lists, run_lists], ids=["uniform", "runs"]
)

LINE = 64


def addresses_from_blocks(refs):
    """Turn abstract block ids into byte addresses one line apart."""
    return np.asarray(refs, dtype=np.int64) * LINE


def reference_shards(
    addresses, sizes, *, rate=None, max_blocks=None, seed=0, snapshots=()
):
    """The SHARDS pass as one per-reference loop over a Fenwick tree.

    The independent model :class:`ShardsEstimator` must reproduce: a
    scalar :func:`hash_block` per reference behind a memo, a Fenwick
    tree over sampled positions that is compacted (live positions
    renumbered in order) whenever it fills, and a max-hash heap with
    lazy deletion.  The memo and the tree start small so that clearing
    and compaction both run on short streams.  Returns a dict from each
    reference count in ``snapshots``, and the stream length, to the
    :class:`SampleResult` after that many references.
    """
    full = 1 << 64
    shift = LINE.bit_length() - 1
    blocks = (np.asarray(addresses, dtype=np.int64) >> shift).tolist()
    threshold = int(rate * full) if rate is not None else full
    sorted_sizes = sorted(sizes)
    miss_weight = [0.0] * len(sorted_sizes)
    cold_weight = ref_weight = 0.0
    sampled_refs = pos = 0
    tree = _Fenwick(16)
    last_pos, block_hash, hash_memo, heap = {}, {}, {}, []

    def snapshot(n):
        by_size = dict(zip(sorted_sizes, miss_weight))
        adj = n / ref_weight if ref_weight else 0.0
        curve = MissRatioCurve(
            line_size=LINE,
            total_refs=n,
            cold_misses=int(round(cold_weight * adj)),
            sizes_lines=tuple(sizes),
            misses=tuple(
                min(n, int(round((cold_weight + by_size[size]) * adj)))
                for size in sizes
            ),
            exact=False,
        )
        return SampleResult(
            curve, sampled_refs, len(last_pos), threshold / full, seed
        )

    results = {}
    for done, block in enumerate(blocks):
        if done in snapshots:
            results[done] = snapshot(done)
        h = hash_memo.get(block)
        if h is None:
            if len(hash_memo) >= 64:
                hash_memo.clear()
            h = hash_memo[block] = hash_block(block, seed)
        if h >= threshold:
            continue
        scale = full / threshold
        sampled_refs += 1
        ref_weight += scale
        if pos >= tree.n:
            live = sorted(last_pos, key=last_pos.__getitem__)
            tree = _Fenwick(max(2 * (len(live) + 1), 16))
            for new_pos, live_block in enumerate(live, start=1):
                last_pos[live_block] = new_pos
                tree.add(new_pos, 1)
            pos = len(live)
        pos += 1
        prev = last_pos.get(block)
        if prev is None:
            cold_weight += scale
            block_hash[block] = h
            heapq.heappush(heap, (-h, block))
        else:
            distance = tree.prefix(pos - 1) - tree.prefix(prev) + 1
            estimated = (distance - 1) * scale + 1.0
            for i, size in enumerate(sorted_sizes):
                if estimated > size:
                    miss_weight[i] += scale
            tree.add(prev, -1)
        tree.add(pos, 1)
        last_pos[block] = pos
        if max_blocks is not None and len(last_pos) > max_blocks:
            while True:
                neg_h, victim = heapq.heappop(heap)
                if block_hash.get(victim) == -neg_h:
                    break
            threshold = -neg_h
            tree.add(last_pos.pop(victim), -1)
            del block_hash[victim]
    results[len(blocks)] = snapshot(len(blocks))
    return results


# ----------------------------------------------------------------------
# Stack engine: vectorised == Fenwick reference == FA-LRU simulation
# ----------------------------------------------------------------------
class TestStackEngine:
    @STREAMS
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_vectorised_matches_fenwick_reference(self, stream, data):
        addrs = addresses_from_blocks(data.draw(stream))
        fast = compute_profile(addrs, LINE)
        slow = compute_profile_reference(addrs, LINE)
        assert fast.cold_misses == slow.cold_misses
        assert np.array_equal(fast.distances, slow.distances)

    @given(block_lists, st.integers(min_value=1, max_value=80))
    @settings(max_examples=150, deadline=None)
    def test_miss_counts_match_fa_lru_simulation(self, refs, capacity):
        addrs = addresses_from_blocks(refs)
        profile = compute_profile(addrs, LINE)
        (from_profile,) = profile.miss_counts([capacity])
        simulated = brute_force_fa_misses(addrs, LINE, capacity)
        assert from_profile == simulated

    @STREAMS
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @given(data=st.data(), set_bits=st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_set_lru_flags_follow_stack_distance_rule(
        self, stream, assoc, data, set_bits
    ):
        # set_lru_flags answers assoc 1 and 2 without a stack pass; on
        # any set-sorted stream every associativity must agree with the
        # rule, read off the Fenwick reference's distances: a hit has
        # stack distance <= assoc, and a miss evicts once its segment
        # has seen assoc distinct blocks.
        block_array = np.asarray(data.draw(stream), dtype=np.int64)
        sets = block_array & ((1 << set_bits) - 1)
        order = np.argsort(sets, kind="stable")
        b, s = block_array[order], sets[order]
        hit, evict = set_lru_flags(b, s, assoc)
        reference = compute_profile_reference(addresses_from_blocks(b), LINE)
        distances = reference.distances.tolist()
        seen = {}
        expected_hit = []
        expected_evict = []
        for block, set_index, distance in zip(b.tolist(), s.tolist(), distances):
            in_set = seen.setdefault(set_index, set())
            expected_hit.append(distance != COLD and distance <= assoc)
            expected_evict.append(not expected_hit[-1] and len(in_set) >= assoc)
            in_set.add(block)
        assert hit.tolist() == expected_hit
        assert evict.tolist() == expected_evict

    @pytest.mark.parametrize("num_sets", [1 << 16, 1 << 17])
    def test_set_order_is_the_stable_argsort(self, num_sets):
        # 2^16 sets take the uint16 radix path, 2^17 the int64 fallback;
        # a uint16 key at 2^17 sets would wrap and reorder the top half.
        rng = np.random.default_rng(num_sets)
        sets = rng.integers(0, num_sets, size=3 * num_sets, dtype=np.int64)
        sets[:4] = num_sets - 1
        order = set_order(sets, num_sets)
        assert np.array_equal(order, np.argsort(sets, kind="stable"))

    def test_cold_misses_count_distinct_blocks(self):
        addrs = addresses_from_blocks([1, 2, 1, 3, 2, 1])
        profile = compute_profile(addrs, LINE)
        assert profile.cold_misses == 3
        assert profile.footprint_lines == 3

    def test_known_small_trace_distances(self):
        # a b c b a: b reuses over {b,c} -> 2; a reuses over {a,b,c} -> 3.
        addrs = addresses_from_blocks([0, 1, 2, 1, 0])
        profile = compute_profile(addrs, LINE)
        assert profile.distances.tolist() == [COLD, COLD, COLD, 2, 3]

    def test_sub_line_addresses_collapse_to_one_block(self):
        profile = compute_profile(np.arange(64, dtype=np.int64), LINE)
        assert profile.cold_misses == 1
        assert (profile.distances[1:] == 1).all()

    def test_empty_trace(self):
        profile = compute_profile(np.empty(0, dtype=np.int64), LINE)
        assert profile.total_refs == 0
        assert profile.miss_counts([4]) == [0]
        curve = curve_from_profile(profile)
        assert curve.miss_ratios() == [0.0] * len(curve.sizes_lines)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_profile([0], line_size=48)
        with pytest.raises(ValueError):
            compute_profile([[0, 1]], LINE)
        with pytest.raises(ValueError):
            compute_profile([0], LINE).miss_counts([0])


# ----------------------------------------------------------------------
# Curves on real analog workloads
# ----------------------------------------------------------------------
class TestCurve:
    def test_exact_curve_byte_identical_to_per_size_simulation(self):
        trace = build("gcc", 20_000, seed=0)
        sizes = default_size_ladder(LINE)
        curve = compute_mrc(trace.addresses, LINE, sizes)
        assert curve.exact
        for size, misses in zip(curve.sizes_lines, curve.misses):
            assert misses == brute_force_fa_misses(
                trace.addresses, LINE, size
            )

    def test_curve_is_monotone_in_size(self):
        trace = build("swim", 20_000, seed=0)
        curve = compute_mrc(trace.addresses, LINE)
        assert list(curve.misses) == sorted(curve.misses, reverse=True)

    def test_default_ladder_spans_1k_to_256k(self):
        sizes = default_size_ladder(LINE)
        assert sizes[0] == (1 << 10) // LINE
        assert sizes[-1] == (256 << 10) // LINE
        assert len(sizes) == 9


# ----------------------------------------------------------------------
# Conflict decomposition vs the simulating ground-truth classifier
# ----------------------------------------------------------------------
class TestDecomposition:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_split_matches_ground_truth_classifier(self, assoc):
        trace = build("go", 20_000, seed=0)
        size_bytes = 16 * 1024
        geometry = CacheGeometry(size=size_bytes, assoc=assoc, line_size=LINE)
        (split,) = conflict_decomposition(
            trace.addresses,
            assoc=assoc,
            line_size=LINE,
            sizes_lines=[size_bytes // LINE],
        )

        truth = GroundTruthClassifier(geometry)
        from repro.cache.set_assoc import SetAssociativeCache

        cache = SetAssociativeCache(geometry)
        misses = 0
        for addr in trace.addresses:
            addr = int(addr)
            if not cache.access(addr).hit:
                truth.classify_miss(addr)
                misses += 1
            truth.observe(addr)
        assert split.misses == misses
        assert split.breakdown() == truth.miss_breakdown()

    def test_split_components_sum_to_misses(self):
        trace = build("gcc", 10_000, seed=1)
        splits = conflict_decomposition(
            trace.addresses,
            assoc=2,
            sizes_lines=default_size_ladder(LINE),
        )
        for split in splits:
            assert (
                split.compulsory + split.capacity + split.conflict
                == split.misses
            )
            assert split.hits == split.total_refs - split.misses

    def test_profile_reuse_requires_matching_stream(self):
        profile = compute_profile(addresses_from_blocks([1, 2, 3]), LINE)
        with pytest.raises(ValueError):
            conflict_decomposition(
                addresses_from_blocks([1, 2]),
                sizes_lines=[4],
                profile=profile,
            )

    def test_decompose_size_validates_geometry(self):
        profile = compute_profile(addresses_from_blocks([1, 2, 3]), LINE)
        with pytest.raises(ValueError):
            decompose_size([1, 2, 3], profile, size_lines=6, assoc=4)
        with pytest.raises(ValueError):
            decompose_size([1, 2, 3], profile, size_lines=12, assoc=1)

    @settings(max_examples=200, deadline=None)
    @given(
        refs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=600
        ),
        assoc=st.integers(min_value=1, max_value=4),
        set_bits=st.integers(min_value=0, max_value=5),
    )
    def test_split_matches_reference_loop(self, refs, assoc, set_bits):
        size_lines = assoc << set_bits
        profile = compute_profile(addresses_from_blocks(refs), LINE)
        split = decompose_size(refs, profile, size_lines, assoc)
        assert split == reference_split(refs, profile, size_lines, assoc)


def reference_split(refs, profile, size_lines, assoc) -> ConflictSplit:
    """The per-reference ``OrderedDict`` set-LRU replay that
    :func:`decompose_size` replaced, kept as its reference."""
    mask = size_lines // assoc - 1
    distances = profile.distances.tolist()
    sets = {}
    misses = compulsory = conflict = capacity = 0
    for pos, block in enumerate(refs):
        lru = sets.setdefault(block & mask, OrderedDict())
        if block in lru:
            lru.move_to_end(block)
            continue
        misses += 1
        if distances[pos] == COLD:
            compulsory += 1
        elif distances[pos] <= size_lines:
            conflict += 1
        else:
            capacity += 1
        if len(lru) >= assoc:
            lru.popitem(last=False)
        lru[block] = None
    return ConflictSplit(
        size_lines=size_lines,
        assoc=assoc,
        line_size=profile.line_size,
        total_refs=len(refs),
        misses=misses,
        compulsory=compulsory,
        capacity=capacity,
        conflict=conflict,
    )


# ----------------------------------------------------------------------
# SHARDS sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_hash_is_deterministic_and_seed_sensitive(self):
        assert hash_block(12345, seed=7) == hash_block(12345, seed=7)
        assert hash_block(12345, seed=7) != hash_block(12345, seed=8)

    def test_rate_one_reproduces_exact_curve(self):
        trace = build("gcc", 10_000, seed=0)
        exact = compute_mrc(trace.addresses, LINE)
        result = sampled_curve(trace.addresses, LINE, rate=1.0, seed=3)
        assert result.curve.misses == exact.misses
        assert result.final_rate == 1.0

    def test_sampling_is_deterministic_from_seed(self):
        trace = build("go", 15_000, seed=0)
        a = sampled_curve(trace.addresses, LINE, max_blocks=256, seed=5)
        b = sampled_curve(trace.addresses, LINE, max_blocks=256, seed=5)
        assert a.curve == b.curve
        assert a.final_rate == b.final_rate

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_size_error_within_documented_tolerance(self, seed):
        # The operating point the docs promise: 1024 sampled blocks.
        # sampling.py's docstring pins this suite/seed grid at 0.05.
        for bench in EVAL_SUITE:
            trace = build(bench, 30_000, seed=0)
            exact = compute_mrc(trace.addresses, LINE).miss_ratios()
            approx = sampled_curve(
                trace.addresses, LINE, max_blocks=1024, seed=seed
            ).curve.miss_ratios()
            worst = max(abs(a - b) for a, b in zip(exact, approx))
            assert worst <= 0.05, f"{bench} seed {seed}: err {worst:.4f}"

    def test_mode_arguments_are_exclusive(self):
        with pytest.raises(ValueError):
            sampled_curve([0], LINE, rate=0.1, max_blocks=8)
        with pytest.raises(ValueError):
            sampled_curve([0], LINE)

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50),
        seed=st.integers(min_value=0, max_value=2**70),
    )
    @example(values=[], seed=2**40 + 3)
    def test_vector_hash_equals_scalar_hash(self, values, seed):
        values = values + [0, -1, 1, -(2**63), 2**63 - 1]
        hashed = hash_blocks(np.array(values, dtype=np.int64), seed)
        assert hashed.tolist() == [hash_block(v, seed) for v in values]

    @pytest.mark.parametrize("mode", [{"rate": 0.5}, {"max_blocks": 8}])
    @pytest.mark.parametrize(
        "bad",
        [np.zeros((2, 3), dtype=np.int64), [[0, 64], [128, 192]]],
        ids=["2d-array", "nested-list"],
    )
    def test_non_one_dimensional_input_is_rejected(self, mode, bad):
        with pytest.raises(ValueError, match="one-dimensional"):
            ShardsEstimator(LINE, **mode).feed(bad)
        with pytest.raises(ValueError, match="one-dimensional"):
            sampled_curve(bad, LINE, **mode)

    def test_feed_hashes_whole_chunks_not_references(self, monkeypatch):
        def scalar_hash(block, seed=0):
            raise AssertionError("feed hashed a single reference")

        monkeypatch.setattr(sampling, "hash_block", scalar_hash)
        addrs = build("gcc", 5_000, seed=0).addresses
        for mode in ({"rate": 0.5}, {"max_blocks": 64}):
            estimator = ShardsEstimator(LINE, **mode)
            estimator.feed(addrs)
            assert estimator.result().sampled_refs > 0


# ----------------------------------------------------------------------
# Incremental SHARDS feeding (the online-service form)
# ----------------------------------------------------------------------
class TestIncrementalSampling:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_fenwick_reference(self, data):
        # Every SampleResult field, at every chunking and every
        # mid-stream snapshot, equals the per-reference tree loop's.
        mode = data.draw(
            st.one_of(
                st.fixed_dictionaries(
                    {"rate": st.floats(min_value=1e-6, max_value=1.0)}
                ),
                st.fixed_dictionaries(
                    {"max_blocks": st.integers(min_value=1, max_value=1024)}
                ),
            )
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**40))
        universe = data.draw(st.integers(min_value=1, max_value=3000))
        n = data.draw(st.integers(min_value=0, max_value=3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        refs = rng.integers(0, universe, size=n, dtype=np.int64)
        if data.draw(st.booleans()):
            # Addresses at and above 2**63, as the service passes them.
            addrs = refs.astype(np.uint64) * np.uint64(LINE) + np.uint64(2**63)
        else:
            addrs = refs * LINE
        sizes = (16, 1, 4, 2, 64, 8, 1024)

        estimator = ShardsEstimator(LINE, sizes, seed=seed, **mode)
        snapshots = {}
        done = 0
        while done < n:
            chunk = data.draw(st.integers(min_value=0, max_value=n - done))
            estimator.feed(addrs[done : done + chunk])
            done += chunk
            if data.draw(st.booleans()):
                snapshots[done] = estimator.result()
        snapshots[n] = estimator.result()
        expected = reference_shards(
            addrs, sizes, seed=seed, snapshots=set(snapshots), **mode
        )
        assert snapshots == expected

    @settings(max_examples=25, deadline=None)
    @given(
        chunk=st.integers(min_value=1, max_value=4000),
        seed=st.integers(min_value=0, max_value=7),
        bench=st.sampled_from(["gcc", "tomcatv", "go"]),
    )
    def test_chunked_feed_identical_to_batch(self, chunk, seed, bench):
        # The contract is exact, not statistical: a stream fed in chunks
        # of any size must produce the same SampleResult as one batch
        # call — positions are never renumbered, so no chunk boundary
        # can change an interval count.
        trace = build(bench, 12_000, seed=0)
        addrs = np.asarray(trace.addresses, dtype=np.int64)
        batch = sampled_curve(addrs, LINE, max_blocks=128, seed=seed)
        estimator = ShardsEstimator(LINE, max_blocks=128, seed=seed)
        for start in range(0, len(addrs), chunk):
            estimator.feed(addrs[start : start + chunk])
        assert estimator.result() == batch

    def test_chunked_feed_identical_in_fixed_rate_mode(self):
        trace = build("swim", 20_000, seed=1)
        addrs = np.asarray(trace.addresses, dtype=np.int64)
        batch = sampled_curve(addrs, LINE, rate=0.25, seed=2)
        estimator = ShardsEstimator(LINE, rate=0.25, seed=2)
        for start in range(0, len(addrs), 333):
            estimator.feed(addrs[start : start + 333])
        assert estimator.result() == batch

    def test_result_is_a_snapshot_not_a_drain(self):
        # Querying mid-stream must not disturb the pass.
        trace = build("gcc", 10_000, seed=0)
        addrs = np.asarray(trace.addresses, dtype=np.int64)
        batch = sampled_curve(addrs, LINE, max_blocks=256, seed=0)
        estimator = ShardsEstimator(LINE, max_blocks=256, seed=0)
        for start in range(0, len(addrs), 1000):
            estimator.feed(addrs[start : start + 1000])
            estimator.result()
        assert estimator.result() == batch

    def test_fixed_size_state_stays_bounded_on_a_long_stream(self):
        # The per-tenant constant-memory claim the service leans on: a
        # stream whose footprint grows without bound must not grow the
        # estimator.  One million refs over ~a million distinct blocks.
        estimator = ShardsEstimator(LINE, max_blocks=256, seed=0)
        peak = 0
        for i in range(200):
            addrs = np.arange(5000, dtype=np.int64) * (LINE * 7919) + (
                i * 31337 * LINE
            )
            estimator.feed(addrs)
            peak = max(peak, estimator.state_entries())
            assert len(estimator._heap) == estimator.sampled_blocks
        assert estimator.sampled_blocks <= 256
        assert peak <= 3 * 256, f"state grew to {peak} entries"

    def test_estimator_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            ShardsEstimator(LINE)
        with pytest.raises(ValueError):
            ShardsEstimator(LINE, rate=0.5, max_blocks=4)
        with pytest.raises(ValueError):
            ShardsEstimator(LINE, rate=1.5)
        with pytest.raises(ValueError):
            ShardsEstimator(LINE, max_blocks=0)
        with pytest.raises(ValueError):
            ShardsEstimator(63, max_blocks=4)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_check_mode_passes(self, capsys):
        rc = mrc_main(
            ["gcc", "--n-refs", "8000", "--check", "--sizes", "1,4,16"]
        )
        assert rc == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_json_output_with_decomposition(self, capsys):
        rc = mrc_main(
            ["go", "--n-refs", "6000", "--assoc", "2", "--json"]
        )
        assert rc == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["workload"] == "go"
        assert entry["exact"]
        assert len(entry["decomposition"]) == len(entry["points"])

    def test_check_incompatible_with_sampling(self, capsys):
        rc = mrc_main(["gcc", "--check", "--rate", "0.1"])
        assert rc == 2


# ----------------------------------------------------------------------
# Harness and observability integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_mrc_cells_are_registered(self):
        from repro.harness.cells import VARIANTS, expand_cells

        assert "mrc" in VARIANTS and "mrc_sampled" in VARIANTS
        ids = [c.cell_id for c in expand_cells(["mrc", "mrc_sampled"])]
        assert ids == ["mrc.main", "mrc_sampled.main"]

    def test_ticker_inactive_without_event_log(self):
        from repro.obs import events as obs_events
        from repro.obs.mrc_events import mrc_ticker

        obs_events.deactivate()
        assert (
            mrc_ticker(bench="gcc", mode="exact", refs=10, sizes_lines=[4])
            is None
        )

    def test_ticker_events_validate_and_reconcile(self, tmp_path):
        from repro.obs import events as obs_events
        from repro.obs.config import ObsConfig
        from repro.obs.mrc_events import mrc_ticker
        from repro.obs.validate import reconcile_events, validate_lines

        path = tmp_path / "events.jsonl"
        obs_events.activate(ObsConfig(events_path=str(path)), cell="mrc.main")
        try:
            ticker = mrc_ticker(
                bench="gcc", mode="exact", refs=100, sizes_lines=[4, 8]
            )
            assert ticker is not None
            ticker.begin()
            ticker.point(size_lines=4, misses=40, miss_ratio=0.4)
            ticker.point(size_lines=8, misses=20, miss_ratio=0.2)
            ticker.finish()
        finally:
            obs_events.deactivate()

        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        kinds = [e["type"] for e in events]
        assert kinds == ["mrc_start", "mrc_point", "mrc_point", "mrc_end"]
        reconciled, issues = reconcile_events(events)
        assert issues == []
        assert reconciled == 1

    @pytest.mark.parametrize(
        "run, slowed",
        [("run_exact", "compute_profile"), ("run_sampled", "sampled_curve")],
    )
    def test_mrc_end_times_the_pass(self, tmp_path, monkeypatch, run, slowed):
        import time

        from repro.experiments import mrc_curves
        from repro.experiments.base import ExperimentParams
        from repro.obs import events as obs_events
        from repro.obs.config import ObsConfig

        original = getattr(mrc_curves, slowed)

        def sleepy(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(mrc_curves, slowed, sleepy)
        path = tmp_path / "events.jsonl"
        obs_events.activate(ObsConfig(events_path=str(path)), cell="mrc.main")
        try:
            getattr(mrc_curves, run)(
                ExperimentParams(n_refs=2_000, warmup=0, suite=["gcc"])
            )
        finally:
            obs_events.deactivate()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (end,) = [e for e in events if e["type"] == "mrc_end"]
        assert end["wall_s"] >= 0.05
