"""The fast engine is a byte-identical drop-in for the scalar loop.

The vector engine (:mod:`repro.system.vector`) re-derives every counter
of :class:`~repro.cache.stats.SystemStats` with set-partitioned numpy
algebra for bufferless cells, and with the flat-state replay of
:mod:`repro.system.buffered` for buffered cells on a direct-mapped L1.
Nothing here tolerates approximation: every test compares
``json.dumps(..., sort_keys=True)`` of the full ``as_dict()`` tree, so
a single off-by-one in any counter — or a float that differs in the
last ulp of the timing replay — fails.  That only bites for a counter
some case makes non-zero, so ``test_identity_cases_drive_every_counter``
checks that every counter is driven by at least one deterministic case.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.buffers import amb, exclusion, prefetch, victim
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import SystemStats
from repro.core.filters import ALL_FILTERS
from repro.obs import events as obs_events
from repro.obs.config import ObsConfig
from repro.obs.metrics import flatten_counters
from repro.obs.validate import main as validate_main
from repro.obs.validate import reconcile_events, validate_lines
from repro.system.config import (
    MachineConfig,
    PAPER_MACHINE,
    SLOW_BUS_MACHINE,
    TimingConfig,
)
from repro.system.policies import AssistConfig, BASELINE, ExclusionMode
from repro.system.simulator import simulate
from repro.system.timing import TimingModel
from repro.system.vector import (
    _l1_direct_mapped_pass,
    _l1_set_assoc_pass,
    _l1_two_way_pass,
    _replay_timing,
    empty_l1_state,
    simulate_vector,
    vector_ineligibility,
)
from repro.workloads.spec_analogs import EVAL_SUITE, build
from repro.workloads.trace import Trace


def canon(stats) -> str:
    """Canonical byte string for equality: sorted-keys JSON of as_dict."""
    return json.dumps(stats.as_dict(), sort_keys=True)


def machine_with_assoc(assoc: int, base: MachineConfig = PAPER_MACHINE):
    """The base machine with its L1 widened to ``assoc`` ways."""
    return replace(base, l1=replace(base.l1, assoc=assoc))


#: The paper's L1 under a 32 KB 2-way L2.  The paper's 1 MB L2 never
#: fills on a 6k-reference trace, so this is the case that evicts from L2.
#: (The slow bus is the suite case that drives bus contention.)
SMALL_L2_MACHINE = replace(PAPER_MACHINE, l2=CacheGeometry(size=32 * 1024, assoc=2))

SUITE_WARMUPS = [0, 1, 1500]
SUITE_ASSOCS = [2, 4, 8]


def _buffered_presets():
    """Every buffered Table 1 and Figure 3-7 preset, by a unique id, plus
    4-bit MCT tags and exclusion without the MCT install."""
    families = {
        "table1": victim.table1_policies(),
        "fig4": prefetch.figure4_policies(),
        "fig5": exclusion.figure5_policies(),
        "fig6.8": amb.figure6_policies(8),
        "fig6.16": amb.figure6_policies(16),
    }
    presets = {
        f"{family}/{policy.name}": policy
        for family, policies in families.items()
        for policy in policies
        if policy.uses_buffer
    }
    for key in ("table1/filter both", "fig4/next-line", "fig6.16/VicPreExc"):
        presets[f"{key}/tag4"] = replace(presets[key], mct_tag_bits=4)
    for key in ("fig5/capacity", "fig5/conflict", "fig6.16/VicPreExc"):
        presets[f"{key}/no-install"] = replace(
            presets[key], mct_install_on_bypass=False
        )
    return presets


BUFFERED_PRESETS = _buffered_presets()
#: Three analogs, and the synthetic trace of :func:`synthetic_trace`.
BUFFERED_BENCHES = ["tomcatv", "gcc", "compress", "synthetic"]

#: A ROB window that outlasts an L2 fill (20 cycles are 60 instructions
#: at the paper's issue rate), so a demand miss can complete exactly on
#: the clock while still inside the window: the one case where the
#: retire rule's ``completion <= clock`` differs from ``<``.
WIDE_WINDOW_MACHINE = replace(
    PAPER_MACHINE, timing=replace(PAPER_MACHINE.timing, rob_window=256)
)

#: Two MSHRs, so misses queue for one and the replay's MSHR sweep runs:
#: on the paper's machine at most ten of the 16 are ever busy in the
#: bufferless identity cases.
TWO_MSHR_MACHINE = replace(
    PAPER_MACHINE, timing=replace(PAPER_MACHINE.timing, mshrs=2)
)

#: Bufferless identity machines for the replay's rare branches, by id.
#: The wide window also fills all 16 MSHRs.
TIMING_EDGE_MACHINES = {
    "two-mshr": TWO_MSHR_MACHINE,
    "wide-window": WIDE_WINDOW_MACHINE,
}

#: (machine, warmup) of the buffered identity cases, by id.
BUFFERED_MACHINES = {
    "paper-w0": (PAPER_MACHINE, 0),
    "paper-w1": (PAPER_MACHINE, 1),
    "paper-w1500": (PAPER_MACHINE, 1500),
    "slow-bus": (SLOW_BUS_MACHINE, 500),
    "small-l2": (SMALL_L2_MACHINE, 500),
    "wide-window": (WIDE_WINDOW_MACHINE, 500),
}


def identity_cases():
    """(bench, machine, warmup, policy) of every deterministic identity case."""
    for bench in EVAL_SUITE:
        for warmup in SUITE_WARMUPS:
            yield bench, PAPER_MACHINE, warmup, BASELINE
        for assoc in SUITE_ASSOCS:
            yield bench, machine_with_assoc(assoc), 500, BASELINE
        yield bench, SLOW_BUS_MACHINE, 500, BASELINE
        yield bench, SMALL_L2_MACHINE, 500, BASELINE
        for machine in TIMING_EDGE_MACHINES.values():
            yield bench, machine, 500, BASELINE
    for bench in BUFFERED_BENCHES:
        for machine, warmup in BUFFERED_MACHINES.values():
            for policy in BUFFERED_PRESETS.values():
                yield bench, machine, warmup, policy


def synthetic_trace(n: int = 4_000) -> Trace:
    """Runs of eight references that drive what the analogs do not.

    Every gap is 2, so each reference is exactly one cycle and the clock
    lands on completion times.  The runs cycle through four patterns:

    * two blocks of one set taking turns: a victim cache swaps them back
      and forth, and each swap waits for the previous one's L1 bank;
    * a sequential stream, touching each block three times: prefetch
      hits;
    * regions 1 MB apart, which share MAT slots: the MAT's replacement
      halving decides bypasses;
    * every other block: back-to-back misses, each with a prefetch that
      is never used, fill the MSHRs.
    """
    sets = PAPER_MACHINE.l1.num_sets
    blocks = []
    for i in range(n):
        run, k = divmod(i, 8)
        kind = run % 4
        if kind == 0:
            blocks.append(run % 16 + sets * (1 + k % 2))
        elif kind == 1:
            blocks.append(4096 + (i // 3) % 2048)
        elif kind == 2:
            blocks.append((1 << 14) * (1 + k % 4) + (run * 7) % 64)
        else:
            blocks.append(8192 + 2 * i)
    return Trace(
        [block * 64 for block in blocks],
        is_load=[i % 5 != 0 for i in range(n)],
        gaps=[2] * n,
        name="synthetic",
    )


@lru_cache(maxsize=None)
def suite_trace(bench: str) -> Trace:
    return synthetic_trace() if bench == "synthetic" else build(bench, 6_000, 0)


@lru_cache(maxsize=None)
def scalar_suite_run(
    bench: str, machine: MachineConfig, warmup: int, policy: AssistConfig = BASELINE
) -> SystemStats:
    """The scalar reference on one identity case, shared by the identity
    tests and the coverage test (callers must not mutate the result)."""
    return simulate(suite_trace(bench), policy, machine, warmup=warmup, engine="scalar")


def assert_identity(
    bench: str, machine: MachineConfig, warmup: int, policy: AssistConfig = BASELINE
) -> None:
    vector = simulate_vector(suite_trace(bench), policy, machine, warmup=warmup)
    assert canon(vector) == canon(scalar_suite_run(bench, machine, warmup, policy))


def undriven_by_design(path: str) -> bool:
    """Counters no identity case can drive: the L2 is modelled tag-only,
    so it never holds a dirty line to write back."""
    return path == "l2.writebacks"


#: References as (block, is_load, gap) so the random traces exercise the
#: writeback algebra and the issue-gap timing replay, not just hits.
sim_ref = st.tuples(
    st.integers(min_value=0, max_value=1023),
    st.booleans(),
    st.integers(min_value=0, max_value=7),
)

#: Short traces, and long ones: a list drawn over one wide size range is
#: nearly always short, so without the second branch a counter that
#: drifts only after ~50 measured references is never reached.
sim_refs = st.one_of(
    st.lists(sim_ref, min_size=1, max_size=400),
    st.lists(sim_ref, min_size=300, max_size=800),
)


def make_trace(refs) -> Trace:
    return Trace(
        [b * 64 for b, _, _ in refs],
        is_load=[ld for _, ld, _ in refs],
        gaps=[g for _, _, g in refs],
        name="prop",
    )


# Each shrink step builds a scalar MemorySystem: a divergence shrinks for minutes.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

#: Timing configurations for the replay property: from one MSHR to the
#: paper's 16, a zero-instruction to a 256-instruction window, and
#: fractional issue rates, whose per-reference clock steps are inexact.
timing_configs = st.builds(
    TimingConfig,
    mshrs=st.integers(min_value=1, max_value=16),
    rob_window=st.one_of(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=256),
    ),
    issue_rate=st.floats(min_value=1.0, max_value=3.0),
    bus_transfer_cycles=st.sampled_from([1, 8]),
)


def scalar_timing(gaps, miss, l2_hit, config: TimingConfig):
    """The scalar model driven as the bufferless MemorySystem drives it:
    step, then on a miss the bus and the MSHR, then the final drain."""
    model = TimingModel(config)
    for gap, is_miss, hit in zip(gaps, miss, l2_hit):
        model.step(gap)
        if is_miss:
            latency = config.l2_latency if hit else config.memory_latency
            start = model.acquire_bus(model.clock)
            model.issue_miss(float(latency), start=start)
    return model.finish()


filters = st.one_of(st.none(), st.sampled_from(ALL_FILTERS))

#: Any buffered policy: every mix of victim fills, fill filter, swap and
#: no-swap filter, prefetch with or without its filter, and every
#: exclusion mode, with or without the MCT install and partial tags.
buffered_policies = st.builds(
    AssistConfig,
    name=st.just("random"),
    buffer_entries=st.integers(min_value=1, max_value=16),
    victim_fills=st.booleans(),
    victim_fill_filter=filters,
    victim_swap=st.booleans(),
    victim_no_swap_filter=filters,
    prefetch=st.booleans(),
    prefetch_filter=filters,
    exclusion=st.one_of(st.none(), st.sampled_from(list(ExclusionMode))),
    mct_install_on_bypass=st.booleans(),
    mct_tag_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)


class TestByteIdentity:
    """vector == scalar, byte for byte, over random and suite traces."""

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_random_warmup(self, refs, data):
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, BASELINE, warmup=warmup)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_random_assoc(self, refs, data):
        # The general set-associative pass (deaths-FIFO victims) against
        # the scalar per-way LRU replay, over every supported width.
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        assoc = data.draw(st.sampled_from([1, 2, 4, 8]))
        machine = machine_with_assoc(assoc)
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, machine, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, BASELINE, machine, warmup=warmup)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_partial_tags_assoc(self, refs, data):
        # Partial MCT tags bias classification toward conflict — the
        # stress case for the victim-tag masking in the associative pass.
        bits = data.draw(st.sampled_from([1, 4, 8, 63]))
        policy = AssistConfig(name=f"tag{bits}", mct_tag_bits=bits)
        machine = machine_with_assoc(data.draw(st.sampled_from([2, 4])))
        trace = make_trace(refs)
        scalar = simulate(trace, policy, machine, warmup=0, engine="scalar")
        vector = simulate_vector(trace, policy, machine, warmup=0)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs)
    def test_random_traces_slow_bus(self, refs):
        trace = make_trace(refs)
        scalar = simulate(
            trace, BASELINE, SLOW_BUS_MACHINE, warmup=0, engine="scalar"
        )
        vector = simulate_vector(trace, BASELINE, SLOW_BUS_MACHINE, warmup=0)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs)
    def test_random_traces_slow_bus_assoc(self, refs):
        machine = machine_with_assoc(4, SLOW_BUS_MACHINE)
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, machine, warmup=0, engine="scalar")
        vector = simulate_vector(trace, BASELINE, machine, warmup=0)
        assert canon(vector) == canon(scalar)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize("warmup", SUITE_WARMUPS)
    def test_suite_benchmarks(self, bench, warmup):
        assert_identity(bench, PAPER_MACHINE, warmup)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize("assoc", SUITE_ASSOCS)
    def test_suite_benchmarks_assoc(self, bench, assoc):
        assert_identity(bench, machine_with_assoc(assoc), 500)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    def test_suite_benchmarks_slow_bus(self, bench):
        assert_identity(bench, SLOW_BUS_MACHINE, 500)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    def test_suite_benchmarks_small_l2(self, bench):
        assert_identity(bench, SMALL_L2_MACHINE, 500)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize("case", sorted(TIMING_EDGE_MACHINES))
    def test_suite_benchmarks_timing_edges(self, bench, case):
        assert_identity(bench, TIMING_EDGE_MACHINES[case], 500)

    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @given(
        # Long streams too, so a miss's window exit often falls before
        # the stream ends (see ``sim_refs``).
        n=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=200, max_value=600),
        ),
        miss_rate=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        config=timing_configs,
    )
    def test_timing_replay_matches_timing_model(self, n, miss_rate, seed, config):
        # The replay alone against the scalar TimingModel: every miss
        # density from none to all, every MSHR count and window size.
        rng = np.random.default_rng(seed)
        gaps = rng.integers(0, 8, size=n, dtype=np.int64)
        miss = rng.random(n) < miss_rate
        l2_hit = rng.random(n) < 0.5
        replayed = _replay_timing(gaps, miss, l2_hit, config)
        expected = scalar_timing(gaps.tolist(), miss.tolist(), l2_hit.tolist(), config)
        assert json.dumps(asdict(replayed)) == json.dumps(asdict(expected))

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(refs=sim_refs, policy=buffered_policies, data=st.data())
    def test_random_buffered_policies(self, refs, policy, data):
        # The buffered replay against the scalar MemorySystem, over any
        # AssistConfig, random traces and warmups.
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        machine = data.draw(
            st.sampled_from(
                [PAPER_MACHINE, SLOW_BUS_MACHINE, SMALL_L2_MACHINE, WIDE_WINDOW_MACHINE]
            )
        )
        trace = make_trace(refs)
        scalar = simulate(trace, policy, machine, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, policy, machine, warmup=warmup)
        assert canon(vector) == canon(scalar)

    @pytest.mark.parametrize("bench", BUFFERED_BENCHES)
    @pytest.mark.parametrize("case", sorted(BUFFERED_MACHINES))
    @pytest.mark.parametrize("preset", sorted(BUFFERED_PRESETS))
    def test_buffered_presets(self, preset, case, bench):
        machine, warmup = BUFFERED_MACHINES[case]
        assert_identity(bench, machine, warmup, BUFFERED_PRESETS[preset])

    def test_identity_cases_drive_every_counter(self):
        # Byte identity only proves a counter's vector-side write when
        # some case makes the counter non-zero.  The path list comes
        # from SystemStats itself, so a counter added later fails here
        # until an identity case drives it.
        driven = set()
        for case in identity_cases():
            counters = flatten_counters(scalar_suite_run(*case).as_dict())
            driven |= {path for path, value in counters.items() if value}
        paths = flatten_counters(SystemStats().as_dict())
        undriven = [p for p in paths if p not in driven and not undriven_by_design(p)]
        assert undriven == [], f"no identity case drives {undriven}"
        stale = [p for p in driven if undriven_by_design(p)]
        assert stale == [], f"exempt counters are driven after all: {stale}"

    def test_general_pass_subsumes_direct_mapped(self):
        # At assoc == 1 the deaths-FIFO pass and the direct-mapped pass
        # from empty state must produce identical flag arrays — the
        # dispatch choice between them is purely a performance decision.
        geometry = PAPER_MACHINE.l1
        trace = build("gcc", 5_000, 1)
        blocks = trace.addresses >> geometry.offset_bits
        writes = np.logical_not(trace.is_load)
        for tag_bits in (None, 3):
            dm, _ = _l1_direct_mapped_pass(
                blocks, writes, geometry, tag_bits,
                *empty_l1_state(geometry.num_sets),
            )
            general = _l1_set_assoc_pass(blocks, writes, geometry, tag_bits)
            for name, a, b in zip(("hit", "evict", "wb", "conflict"), dm, general):
                assert np.array_equal(a, b), (name, tag_bits)

    @pytest.mark.parametrize("with_writes", [False, True])
    def test_general_pass_subsumes_two_way(self, with_writes):
        # At assoc == 2 the closed form over run heads and the deaths-
        # FIFO pass must produce identical flag arrays.
        geometry = machine_with_assoc(2).l1
        trace = build("gcc", 5_000, 1)
        blocks = trace.addresses >> geometry.offset_bits
        writes = np.logical_not(trace.is_load) if with_writes else None
        for tag_bits in (None, 3):
            two_way = _l1_two_way_pass(blocks, writes, geometry, tag_bits)
            general = _l1_set_assoc_pass(blocks, writes, geometry, tag_bits)
            for name, a, b in zip(("hit", "evict", "wb", "conflict"), two_way, general):
                assert np.array_equal(a, b), (name, tag_bits)

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        refs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        sets=st.sampled_from([1, 2, 4]),
        tag_bits=st.sampled_from([None, 1, 2]),
        with_writes=st.booleans(),
    )
    def test_two_way_pass_matches_general_pass_on_random_streams(
        self, refs, sets, tag_bits, with_writes
    ):
        # Few blocks over few sets: long residencies, runs and re-misses.
        geometry = CacheGeometry(size=sets * 2 * 64, assoc=2, line_size=64)
        blocks = np.array([block for block, _ in refs], dtype=np.int64)
        writes = np.array([w for _, w in refs], dtype=bool) if with_writes else None
        two_way = _l1_two_way_pass(blocks, writes, geometry, tag_bits)
        general = _l1_set_assoc_pass(blocks, writes, geometry, tag_bits)
        for name, a, b in zip(("hit", "evict", "wb", "conflict"), two_way, general):
            assert np.array_equal(a, b), name


#: A buffered cell the fast engine declines: its L1 is 2-way.
ASSOC_L1 = machine_with_assoc(2)


class TestEngineDispatch:
    def test_vector_supported_gating(self):
        def supported(policy, machine):
            return vector_ineligibility(policy, machine) is None

        assert supported(BASELINE, PAPER_MACHINE)
        # A buffered cell runs the buffered replay on a direct-mapped L1...
        assert supported(victim.filter_both(), PAPER_MACHINE)
        assert supported(amb.vic_pre_exc(16), SLOW_BUS_MACHINE)
        # ...but not beside an associative one, which the replay's one
        # resident block per set cannot model.
        assert not supported(victim.filter_both(), ASSOC_L1)
        # A set-associative L1 never disqualifies a bufferless cell: the
        # general pass replays per-set LRU with stack distances.
        l2ish = replace(PAPER_MACHINE, l1=PAPER_MACHINE.l2)
        assert supported(BASELINE, l2ish)
        assert supported(BASELINE, machine_with_assoc(8))

    @pytest.mark.parametrize(
        ("policy_kwargs", "expect"),
        [
            ({"victim_fills": True}, "victim fills"),
            ({"prefetch": True}, "next-line prefetch"),
            ({"exclusion": ExclusionMode.CAPACITY}, "capacity exclusion"),
            ({}, "raw assist buffer"),
        ],
        ids=["victim-fills", "prefetch", "exclusion", "raw-buffer"],
    )
    def test_ineligibility_blames_the_feature(self, policy_kwargs, expect):
        policy = AssistConfig(name="culprit", buffer_entries=4, **policy_kwargs)
        assert vector_ineligibility(policy, PAPER_MACHINE) is None
        reason = vector_ineligibility(policy, machine_with_assoc(4))
        assert reason is not None
        assert expect in reason
        assert "'culprit'" in reason
        assert "4-way L1" in reason

    def test_eligible_policy_has_no_ineligibility_reason(self):
        assert vector_ineligibility(BASELINE, PAPER_MACHINE) is None
        assert vector_ineligibility(BASELINE, machine_with_assoc(4)) is None
        for policy in BUFFERED_PRESETS.values():
            assert vector_ineligibility(policy, PAPER_MACHINE) is None

    def test_unknown_engine_rejected(self):
        trace = build("gcc", 100, 0)
        for engine in ("bogus", "vector"):  # simulate_vector() demands it
            with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
                simulate(trace, BASELINE, engine=engine)

    def test_vector_demand_raises_with_blame(self):
        # simulate_vector() is a demand, not a preference: an ineligible
        # cell must fail loudly and say which feature forced scalar.
        trace = build("gcc", 2_000, 0)
        policy = victim.filter_both()
        reason = vector_ineligibility(policy, ASSOC_L1)
        with pytest.raises(ValueError, match="assist buffer") as excinfo:
            simulate_vector(trace, policy, ASSOC_L1, warmup=100)
        assert reason in str(excinfo.value)

    def test_simulate_vector_raises_with_blame(self):
        trace = build("gcc", 500, 0)
        with pytest.raises(ValueError, match="not vector-eligible"):
            simulate_vector(trace, victim.filter_both(), ASSOC_L1, warmup=0)

    def test_auto_falls_back_for_unsupported_policy(self):
        trace = build("gcc", 2_000, 0)
        policy = victim.filter_both()
        auto = simulate(trace, policy, ASSOC_L1, warmup=100, engine="auto")
        scalar = simulate(trace, policy, ASSOC_L1, warmup=100, engine="scalar")
        assert canon(auto) == canon(scalar)

    def test_auto_runs_buffered_replay_on_direct_mapped_l1(self, monkeypatch):
        # engine="auto" and simulate_vector() both take the buffered
        # replay; the scalar MemorySystem is never built.
        import repro.system.simulator as simulator

        def refuse(*args, **kwargs):
            raise AssertionError("the scalar engine ran a buffered cell")

        trace = build("gcc", 2_000, 0)
        scalar = simulate(trace, amb.vic_pre_exc(), warmup=100, engine="scalar")
        monkeypatch.setattr(simulator, "MemorySystem", refuse)
        auto = simulate(trace, amb.vic_pre_exc(), warmup=100)
        fast = simulate_vector(trace, amb.vic_pre_exc(), warmup=100)
        assert canon(auto) == canon(fast) == canon(scalar)


class TestInstrumentedCampaign:
    """A metrics-on vector run emits the same event stream contract."""

    def _run(
        self,
        tmp_path,
        engine,
        heartbeat_every=512,
        machine=PAPER_MACHINE,
        policy=BASELINE,
        tag="",
    ):
        path = tmp_path / f"events_{engine}{tag}.jsonl"
        trace = build("gcc", 4_000, 3)
        obs_events.activate(
            ObsConfig(events_path=str(path), heartbeat_every=heartbeat_every),
            cell="vector-test",
        )
        try:
            if engine == "vector":
                stats = simulate_vector(trace, policy, machine, warmup=500)
            else:
                stats = simulate(trace, policy, machine, warmup=500, engine=engine)
        finally:
            obs_events.deactivate()
        return path, stats

    @staticmethod
    def _canonical_events(path):
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        volatile = {"ts", "pid", "sim", "wall_s", "refs_per_sec"}
        return [
            {k: v for k, v in e.items() if k not in volatile} for e in events
        ]

    def test_event_streams_identical(self, tmp_path):
        vec_path, vec_stats = self._run(tmp_path, "vector")
        sc_path, sc_stats = self._run(tmp_path, "scalar")
        assert canon(vec_stats) == canon(sc_stats)
        assert self._canonical_events(vec_path) == self._canonical_events(
            sc_path
        )

    def test_event_streams_identical_assoc(self, tmp_path):
        # Same contract on a 2-way L1, where the general set-associative
        # pass (not the shift-compare fast path) feeds the replay.
        machine = machine_with_assoc(2)
        vec_path, vec_stats = self._run(tmp_path, "vector", machine=machine)
        sc_path, sc_stats = self._run(tmp_path, "scalar", machine=machine)
        assert canon(vec_stats) == canon(sc_stats)
        assert self._canonical_events(vec_path) == self._canonical_events(
            sc_path
        )

    @pytest.mark.parametrize("heartbeat_every", [512, 700])
    @pytest.mark.parametrize(
        "policy", [victim.filter_both(), amb.vic_pre_exc()], ids=lambda p: p.name
    )
    def test_event_streams_identical_buffered(self, tmp_path, policy, heartbeat_every):
        # The buffered replay's chunks land on the scalar driver's
        # boundaries: same heartbeats, same counters, same sim_end.
        runs = {
            engine: self._run(
                tmp_path, engine, heartbeat_every, policy=policy, tag="_buffered"
            )
            for engine in ("vector", "scalar")
        }
        (vec_path, vec_stats), (sc_path, sc_stats) = runs["vector"], runs["scalar"]
        assert canon(vec_stats) == canon(sc_stats)
        vec_events = self._canonical_events(vec_path)
        assert vec_events == self._canonical_events(sc_path)
        assert [e for e in vec_events if e["type"] == "heartbeat"]
        events, _ = validate_lines(vec_path.read_text().splitlines())
        assert reconcile_events(events) == (1, [])

    def test_auto_fallback_emits_blame_event(self, tmp_path):
        policy = victim.filter_both()
        path, _ = self._run(
            tmp_path, "auto", policy=policy, machine=ASSOC_L1, tag="_fallback"
        )
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        falls = [e for e in events if e["type"] == "engine_fallback"]
        assert len(falls) == 1
        assert falls[0]["policy"] == policy.name
        assert "assist buffer" in falls[0]["reason"]
        assert "2-way L1" in falls[0]["reason"]
        # The extra event must not break stream reconciliation.
        assert reconcile_events(events) == (1, [])

    def test_eligible_auto_run_emits_no_fallback_event(self, tmp_path):
        for policy in (BASELINE, victim.filter_both()):
            path, _ = self._run(tmp_path, "auto", policy=policy, tag=policy.name)
            events, problems = validate_lines(path.read_text().splitlines())
            assert problems == []
            assert [e for e in events if e["type"] == "engine_fallback"] == []

    def test_validate_reconcile_cli_passes(self, tmp_path, capsys):
        path, _ = self._run(tmp_path, "vector")
        assert validate_main([str(path), "--reconcile"]) == 0
        events, _ = validate_lines(path.read_text().splitlines())
        assert reconcile_events(events) == (1, [])

    def test_heartbeat_cadence_preserved(self, tmp_path):
        path, _ = self._run(tmp_path, "vector", heartbeat_every=700)
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        beats = [e for e in events if e["type"] == "heartbeat"]
        # 3500 measured refs at a 700 cadence: beats at 700..2800 (the
        # 3500 boundary is the end of the run, which emits sim_end, not
        # a heartbeat) — the vector engine replays the same contract.
        assert [b["refs_done"] for b in beats] == [700, 1400, 2100, 2800]
