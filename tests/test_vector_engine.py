"""The vectorised engine is a byte-identical drop-in for the scalar loop.

The vector engine (:mod:`repro.system.vector`) re-derives every counter
of :class:`~repro.cache.stats.SystemStats` with set-partitioned numpy
algebra instead of a per-reference Python loop.  Nothing here tolerates
approximation: every test compares ``json.dumps(..., sort_keys=True)``
of the full ``as_dict()`` tree, so a single off-by-one in any counter —
or a float that differs in the last ulp of the timing replay — fails.
That only bites for a counter some case makes non-zero, so
``test_identity_cases_drive_every_counter`` checks that every counter
is driven by at least one deterministic case.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import SystemStats
from repro.obs import events as obs_events
from repro.obs.config import ObsConfig
from repro.obs.metrics import flatten_counters
from repro.obs.validate import main as validate_main
from repro.obs.validate import reconcile_events, validate_lines
from repro.system.config import MachineConfig, PAPER_MACHINE, SLOW_BUS_MACHINE
from repro.system.policies import AssistConfig, BASELINE, ExclusionMode
from repro.system.simulator import ENGINE_ENV_VAR, simulate
from repro.system.vector import (
    simulate_vector,
    vector_ineligibility,
    vector_supported,
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


def identity_cases():
    """(bench, machine, warmup) of every deterministic identity case."""
    for bench in EVAL_SUITE:
        for warmup in SUITE_WARMUPS:
            yield bench, PAPER_MACHINE, warmup
        for assoc in SUITE_ASSOCS:
            yield bench, machine_with_assoc(assoc), 500
        yield bench, SLOW_BUS_MACHINE, 500
        yield bench, SMALL_L2_MACHINE, 500


@lru_cache(maxsize=None)
def suite_trace(bench: str) -> Trace:
    return build(bench, 6_000, 0)


@lru_cache(maxsize=None)
def scalar_suite_run(bench: str, machine: MachineConfig, warmup: int) -> SystemStats:
    """The scalar reference on one identity case, shared by the identity
    tests and the coverage test (callers must not mutate the result)."""
    return simulate(suite_trace(bench), BASELINE, machine, warmup=warmup, engine="scalar")


def assert_identity(bench: str, machine: MachineConfig, warmup: int) -> None:
    vector = simulate(suite_trace(bench), BASELINE, machine, warmup=warmup, engine="vector")
    assert canon(vector) == canon(scalar_suite_run(bench, machine, warmup))


def undriven_by_design(path: str) -> bool:
    """Counters no identity case can drive, for RPR070's old reasons: the
    vector engine runs bufferless cells only, and the L2 is modelled
    tag-only, so it never holds a dirty line to write back."""
    return path.startswith("buffer.") or path == "l2.writebacks"


#: References as (block, is_load, gap) so the random traces exercise the
#: writeback algebra and the issue-gap timing replay, not just hits.
sim_refs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1023),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=400,
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
        import numpy as np

        from repro.system.vector import (
            _l1_direct_mapped_pass,
            _l1_set_assoc_pass,
            empty_l1_state,
        )

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


class TestEngineDispatch:
    def test_vector_supported_gating(self):
        from repro.buffers import victim

        assert vector_supported(BASELINE, PAPER_MACHINE)
        # Any assist buffer disqualifies the cell (per-reference buffer
        # state is inherently sequential)...
        assert not vector_supported(victim.filter_both(), PAPER_MACHINE)
        # ...but a set-associative L1 no longer does: the general pass
        # replays per-set LRU with stack distances.
        l2ish = replace(PAPER_MACHINE, l1=PAPER_MACHINE.l2)
        assert vector_supported(BASELINE, l2ish)
        assert vector_supported(BASELINE, machine_with_assoc(8))

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
        reason = vector_ineligibility(policy, PAPER_MACHINE)
        assert reason is not None
        assert expect in reason
        assert "'culprit'" in reason

    def test_eligible_policy_has_no_ineligibility_reason(self):
        assert vector_ineligibility(BASELINE, PAPER_MACHINE) is None
        assert vector_ineligibility(BASELINE, machine_with_assoc(4)) is None

    def test_unknown_engine_rejected(self):
        trace = build("gcc", 100, 0)
        with pytest.raises(ValueError, match="bogus"):
            simulate(trace, BASELINE, engine="bogus")

    def test_vector_demand_raises_with_blame(self):
        # engine="vector" is a demand, not a preference: an ineligible
        # cell must fail loudly and say which feature forced scalar.
        from repro.buffers import victim

        trace = build("gcc", 2_000, 0)
        with pytest.raises(ValueError, match="assist buffer") as excinfo:
            simulate(trace, victim.filter_both(), warmup=100, engine="vector")
        assert "engine='auto'" in str(excinfo.value)

    def test_simulate_vector_raises_with_blame(self):
        from repro.buffers import victim

        trace = build("gcc", 500, 0)
        with pytest.raises(ValueError, match="not vector-eligible"):
            simulate_vector(trace, victim.filter_both(), warmup=0)

    def test_auto_falls_back_for_unsupported_policy(self):
        from repro.buffers import victim

        trace = build("gcc", 2_000, 0)
        policy = victim.filter_both()
        auto = simulate(trace, policy, warmup=100, engine="auto")
        scalar = simulate(trace, policy, warmup=100, engine="scalar")
        assert canon(auto) == canon(scalar)

    def test_env_var_steers_auto_but_not_explicit(self, monkeypatch):
        trace = build("swim", 2_000, 0)
        monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
        via_env = simulate(trace, BASELINE, warmup=100)
        scalar = simulate(trace, BASELINE, warmup=100, engine="scalar")
        assert canon(via_env) == canon(scalar)
        # Explicit engine= wins over the environment.
        monkeypatch.setenv(ENGINE_ENV_VAR, "vector")
        explicit = simulate(trace, BASELINE, warmup=100, engine="scalar")
        assert canon(explicit) == canon(scalar)

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            simulate(build("gcc", 100, 0), BASELINE)


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

    def test_auto_fallback_emits_blame_event(self, tmp_path):
        from repro.buffers import victim

        policy = victim.filter_both()
        path, _ = self._run(tmp_path, "auto", policy=policy, tag="_fallback")
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        falls = [e for e in events if e["type"] == "engine_fallback"]
        assert len(falls) == 1
        assert falls[0]["policy"] == policy.name
        assert "assist buffer" in falls[0]["reason"]
        # The extra event must not break stream reconciliation.
        assert reconcile_events(events) == (1, [])

    def test_eligible_auto_run_emits_no_fallback_event(self, tmp_path):
        path, _ = self._run(tmp_path, "auto", tag="_eligible")
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
