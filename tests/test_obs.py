"""Tests for the observability layer (repro.obs).

Covers the acceptance criteria of the obs subsystem:

* ``events.jsonl`` lines are schema-versioned and validate;
* replaying a simulation's ``counters`` deltas reproduces its final
  snapshot — and the final ``SystemStats.as_dict()`` — exactly;
* enabling metrics does not change simulation statistics at all;
* tracing spans (cell/attempt/backoff/checkpoint) land in the report;
* the harness emits events from isolated workers and inline cells alike;
* the validator CLI passes good streams and fails corrupted ones;
* the runner CLI rejects inconsistent observability flag combinations.
"""

import json

import pytest

from repro.experiments.base import ExperimentParams
from repro.experiments.runner import main as runner_main
from repro.harness.cells import CellSpec, FaultInjection
from repro.harness.checkpoint import RunDirectory
from repro.harness.executor import HarnessConfig, run_cells
from repro.obs import events as obs_events
from repro.obs.config import ObsConfig
from repro.obs.events import EVENT_SCHEMA, EventLog
from repro.obs.heartbeat import sim_ticker
from repro.obs.metrics import (
    accumulate_deltas,
    diff_counters,
    flatten_counters,
    reconcile,
    unflatten_counters,
)
from repro.obs.profiler import maybe_profile, profile_path
from repro.obs.spans import NULL_TRACER, Span, Tracer
from repro.obs.validate import main as validate_main
from repro.obs.validate import reconcile_events, validate_lines
from repro.system.policies import BASELINE
from repro.system.simulator import simulate
from repro.workloads.spec_analogs import build

TINY = ExperimentParams(n_refs=4_000, warmup=1_000, suite=["gcc"])
FAST = HarnessConfig(retries=1, backoff_s=0.0)
FAST_INLINE = HarnessConfig(retries=1, backoff_s=0.0, isolate=False)


@pytest.fixture(autouse=True)
def _obs_deactivated():
    """Every test starts and ends with observability off."""
    obs_events.deactivate()
    yield
    obs_events.deactivate()


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ----------------------------------------------------------------------
# ObsConfig
# ----------------------------------------------------------------------
class TestObsConfig:
    def test_default_is_fully_disabled(self):
        config = ObsConfig()
        assert not config.metrics
        assert not config.enabled

    def test_metrics_follows_events_path(self, tmp_path):
        config = ObsConfig(events_path=str(tmp_path / "events.jsonl"))
        assert config.metrics and config.enabled

    def test_trace_or_profile_alone_enable(self, tmp_path):
        assert ObsConfig(trace=True).enabled
        assert ObsConfig(profile_dir=str(tmp_path)).enabled

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_every"):
            ObsConfig(heartbeat_every=-1)


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_emit_stamps_schema_ts_pid_cell(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, cell="fig1.main") as log:
            log.emit("run_start", params={}, cells=[], jobs=1)
        (event,) = read_events(path)
        assert event["schema"] == EVENT_SCHEMA
        assert event["type"] == "run_start"
        assert event["cell"] == "fig1.main"
        assert isinstance(event["ts"], float) and isinstance(event["pid"], int)

    def test_unknown_type_rejected(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("bogus")

    def test_lazy_open_leaves_no_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path).close()
        assert not path.exists()

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for ok in (True, False):
            with EventLog(path) as log:
                log.emit("run_end", summary={}, ok=ok)
        assert [e["ok"] for e in read_events(path)] == [True, False]

    def test_activation_state_roundtrip(self, tmp_path):
        config = ObsConfig(
            events_path=str(tmp_path / "events.jsonl"), heartbeat_every=7
        )
        state = obs_events.snapshot_state()
        obs_events.activate(config, cell="c1")
        assert obs_events.active_log() is not None
        assert obs_events.heartbeat_every() == 7
        obs_events.deactivate()
        obs_events.restore_state(state)
        assert obs_events.active_log() is None
        assert obs_events.heartbeat_every() == 0


# ----------------------------------------------------------------------
# Counter flattening / deltas / reconciliation
# ----------------------------------------------------------------------
class TestMetrics:
    NESTED = {"l1": {"hits": 3, "misses": 1}, "memory_accesses": 4}

    def test_flatten_and_unflatten_roundtrip(self):
        flat = flatten_counters(self.NESTED)
        assert flat == {"l1.hits": 3, "l1.misses": 1, "memory_accesses": 4}
        assert unflatten_counters(flat) == self.NESTED

    def test_flatten_keys_sorted(self):
        assert list(flatten_counters({"b": 1, "a": {"z": 2, "y": 3}})) == [
            "a.y",
            "a.z",
            "b",
        ]

    def test_non_numeric_counter_rejected(self):
        with pytest.raises(TypeError, match="name"):
            flatten_counters({"name": "gcc"})
        with pytest.raises(TypeError):
            flatten_counters({"flag": True})

    def test_diff_drops_zero_deltas(self):
        delta = diff_counters({"a": 5, "b": 2}, {"a": 5, "b": 1})
        assert delta == {"b": 1}

    def test_diff_treats_missing_as_zero(self):
        assert diff_counters({"a": 5}, {}) == {"a": 5}

    def test_accumulate_and_reconcile_exact(self):
        deltas = [{"a": 1}, {"a": 2, "b": 3}]
        assert accumulate_deltas(deltas) == {"a": 3, "b": 3}
        assert reconcile(deltas, {"a": 3, "b": 3, "zero": 0}) == []

    def test_reconcile_reports_mismatch_and_orphans(self):
        problems = reconcile([{"a": 1, "ghost": 2}], {"a": 3})
        assert any("a: replayed 1" in p for p in problems)
        assert any("ghost" in p for p in problems)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_parent_child_ids(self):
        tracer = Tracer("cell0")
        with tracer.span("cell") as root:
            with tracer.span("attempt", attempt=1) as child:
                pass
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert root.span_id.startswith("cell0:")

    def test_finished_in_completion_order_with_durations(self):
        tracer = Tracer("t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s["name"] for s in tracer.to_dicts()]
        assert names == ["inner", "outer"]
        for s in tracer.to_dicts():
            assert s["duration_s"] >= 0
            assert s["end_ts"] >= s["start_ts"]

    def test_attrs_and_set(self):
        tracer = Tracer("t")
        with tracer.span("attempt", attempt=2) as span:
            span.set(outcome="ok")
        (d,) = tracer.to_dicts()
        assert d["attrs"] == {"attempt": 2, "outcome": "ok"}

    def test_span_closes_even_on_exception(self):
        tracer = Tracer("t")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (d,) = tracer.to_dicts()
        assert d["name"] == "boom" and d["end_ts"] is not None

    def test_on_finish_callback(self):
        finished = []
        tracer = Tracer("t", on_finish=finished.append)
        with tracer.span("a"):
            pass
        assert [s.name for s in finished] == ["a"]
        assert isinstance(finished[0], Span)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(more=2)
        assert NULL_TRACER.to_dicts() == []


# ----------------------------------------------------------------------
# Simulation heartbeats + exact replay
# ----------------------------------------------------------------------
class TestSimTicker:
    def test_ticker_none_when_metrics_off(self):
        assert sim_ticker(bench="b", policy="p", refs=10, warmup=0) is None

    def _run_with_obs(self, tmp_path, heartbeat_every):
        path = tmp_path / "events.jsonl"
        trace = build("gcc", 3_000, 0)
        obs_events.activate(
            ObsConfig(events_path=str(path), heartbeat_every=heartbeat_every)
        )
        stats = simulate(trace, BASELINE, warmup=500)
        obs_events.deactivate()
        return path, trace, stats

    def test_metrics_do_not_change_statistics(self, tmp_path):
        path, trace, with_obs = self._run_with_obs(tmp_path, heartbeat_every=512)
        baseline = simulate(trace, BASELINE, warmup=500)
        assert with_obs.as_dict() == baseline.as_dict()

    def test_events_validate_and_reconcile(self, tmp_path):
        path, _, stats = self._run_with_obs(tmp_path, heartbeat_every=512)
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        sims, problems = reconcile_events(events)
        assert (sims, problems) == (1, [])
        # The sim_end final snapshot IS the run's SystemStats, flattened.
        (final,) = [e["final"] for e in events if e["type"] == "sim_end"]
        assert final == flatten_counters(stats.as_dict())

    def test_heartbeats_carry_progress_and_rates(self, tmp_path):
        path, trace, _ = self._run_with_obs(tmp_path, heartbeat_every=512)
        beats = [e for e in read_events(path) if e["type"] == "heartbeat"]
        measured = len(trace) - 500
        assert len(beats) == measured // 512
        assert [b["refs_done"] for b in beats] == [
            512 * i for i in range(1, len(beats) + 1)
        ]
        for b in beats:
            assert b["refs_per_sec"] > 0
            assert 0.0 <= b["l1_hit_rate"] <= 100.0
            assert 0.0 <= b["mct_conflict_share"] <= 100.0

    def test_no_heartbeats_when_cadence_zero(self, tmp_path):
        path, _, _ = self._run_with_obs(tmp_path, heartbeat_every=0)
        types = [e["type"] for e in read_events(path)]
        assert "heartbeat" not in types
        # Still exactly one closing delta plus the final snapshot.
        assert types.count("counters") == 1 and types.count("sim_end") == 1

    def test_accuracy_ticker_reconciles(self, tmp_path):
        from repro.cache.geometry import CacheGeometry
        from repro.core.accuracy import measure_accuracy
        from test_ground_truth_and_accuracy import reference_accuracy

        addrs = build("gcc", 3_000, 0).addresses.tolist()
        for assoc, tag_bits in ((1, None), (2, 4)):
            geometry = CacheGeometry(size=16 * 1024, assoc=assoc)
            path = tmp_path / f"events-{assoc}.jsonl"
            obs_events.activate(
                ObsConfig(events_path=str(path), heartbeat_every=700)
            )
            measure_accuracy(addrs, geometry, tag_bits=tag_bits)
            obs_events.deactivate()
            events, problems = validate_lines(path.read_text().splitlines())
            assert problems == []
            assert reconcile_events(events) == (1, [])
            (start,) = [e for e in events if e["type"] == "sim_start"]
            assert start["bench"] == "accuracy"
            beats = [e for e in events if e["type"] == "heartbeat"]
            assert beats and all(
                0.0 <= b["overall_accuracy"] <= 100.0 for b in beats
            )
            # The deltas replayed up to each beat are exactly the
            # per-reference loop's counters after the same reference.
            _, expected = reference_accuracy(addrs, geometry, tag_bits, every=700)
            assert [b["refs_done"] for b in beats] == [
                700 * k for k in range(1, len(expected) + 1)
            ]
            replayed, state, last = [], {}, None
            for e in events:
                if e["type"] == "counters":
                    state = accumulate_deltas([state, e["delta"]])
                    if last == "heartbeat":
                        replayed[-1] = state
                elif e["type"] == "heartbeat":
                    replayed.append(state)
                last = e["type"]
            assert replayed == [
                {k: v for k, v in flatten_counters(c).items() if v}
                for c in expected
            ]


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_profile_path_sanitises_cell_id(self, tmp_path):
        path = profile_path(tmp_path, "fig3/odd id", 2)
        assert path.parent == tmp_path and path.suffix == ".prof"
        assert "/" not in path.name.replace(".prof", "")

    def test_maybe_profile_disabled_is_noop(self, tmp_path):
        with maybe_profile(None, "c", 1):
            pass
        with maybe_profile(ObsConfig(), "c", 1):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_maybe_profile_writes_artifact(self, tmp_path):
        import pstats

        config = ObsConfig(profile_dir=str(tmp_path / "profiles"))
        with maybe_profile(config, "cell.x", 1):
            sum(range(1000))
        path = profile_path(tmp_path / "profiles", "cell.x", 1)
        assert path.is_file()
        pstats.Stats(str(path))  # parseable


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
class TestHarnessIntegration:
    CELL = [CellSpec("table1", "main")]

    def _obs(self, tmp_path, **overrides):
        defaults = dict(
            events_path=str(tmp_path / "events.jsonl"),
            trace=True,
            heartbeat_every=1_000,
        )
        defaults.update(overrides)
        return ObsConfig(**defaults)

    @pytest.mark.parametrize("config", [FAST, FAST_INLINE], ids=["isolated", "inline"])
    def test_events_and_spans_from_both_modes(self, tmp_path, config):
        obs = self._obs(tmp_path)
        report = run_cells(self.CELL, TINY, config, obs_config=obs)
        assert report.ok
        events, problems = validate_lines(
            (tmp_path / "events.jsonl").read_text().splitlines()
        )
        assert problems == []
        sims, problems = reconcile_events(events)
        assert problems == [] and sims > 0
        types = {e["type"] for e in events}
        assert {"run_start", "run_end", "sim_start", "sim_end", "span"} <= types
        # Worker-side events carry the cell id.
        assert all(
            e["cell"] == "table1.main" for e in events if e["type"] == "sim_start"
        )
        # Spans attached to the report: root cell span + attempt + children.
        (cell_report,) = report.cells
        names = [s["name"] for s in cell_report.spans]
        assert "cell" in names and "attempt" in names

    def test_retry_and_backoff_spans(self, tmp_path):
        obs = self._obs(tmp_path, events_path=None, heartbeat_every=0)
        inject = FaultInjection.parse("table1.main:flaky:1")
        report = run_cells(self.CELL, TINY, FAST, inject=inject, obs_config=obs)
        (cell_report,) = report.cells
        assert cell_report.status.value == "RETRIED"
        names = [s["name"] for s in cell_report.spans]
        assert names.count("attempt") == 2 and "backoff" in names
        attempts = [s for s in cell_report.spans if s["name"] == "attempt"]
        assert [a["attrs"]["outcome"] for a in attempts] == ["error", "ok"]

    def test_checkpoint_span_and_report_json(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.prepare(TINY, resume=False)
        obs = self._obs(tmp_path / "run")
        run_cells(self.CELL, TINY, FAST, run_dir=rd, obs_config=obs)
        saved = json.loads(rd.report_path.read_text())
        (cell,) = saved["cells"]
        assert "checkpoint" in [s["name"] for s in cell["spans"]]
        # Spans were also forwarded as events (metrics + trace together).
        events = read_events(tmp_path / "run" / "events.jsonl")
        span_names = [e["name"] for e in events if e["type"] == "span"]
        assert "checkpoint" in span_names and "cell" in span_names

    def test_no_spans_key_when_tracing_off(self, tmp_path):
        obs = self._obs(tmp_path, trace=False)
        report = run_cells(self.CELL, TINY, FAST, obs_config=obs)
        (cell_report,) = report.cells
        assert cell_report.spans is None
        assert "spans" not in cell_report.to_dict()

    def test_profile_artifacts_named_by_attempt(self, tmp_path):
        # An injected fault aborts attempt 1 before any profiled work, so
        # the only artifact is the succeeding attempt's — and its name
        # records which attempt it was.
        obs = ObsConfig(profile_dir=str(tmp_path / "profiles"))
        inject = FaultInjection.parse("table1.main:flaky:1")
        report = run_cells(self.CELL, TINY, FAST, inject=inject, obs_config=obs)
        assert report.ok
        names = sorted(p.name for p in (tmp_path / "profiles").iterdir())
        assert names == ["table1.main.attempt2.prof"]

    def test_obs_none_emits_nothing(self, tmp_path):
        report = run_cells(self.CELL, TINY, FAST_INLINE)
        assert report.ok
        assert list(tmp_path.iterdir()) == []
        assert obs_events.active_log() is None


# ----------------------------------------------------------------------
# Validator CLI
# ----------------------------------------------------------------------
class TestValidatorCLI:
    def _good_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        trace = build("gcc", 2_000, 0)
        obs_events.activate(
            ObsConfig(events_path=str(path), heartbeat_every=500)
        )
        simulate(trace, BASELINE)
        obs_events.deactivate()
        return path

    def test_good_stream_passes(self, tmp_path, capsys):
        path = self._good_stream(tmp_path)
        assert validate_main([str(path), "--reconcile"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "reconciled exactly" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert validate_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_json_fails(self, tmp_path, capsys):
        path = self._good_stream(tmp_path)
        path.write_text(path.read_text() + "{not json\n")
        assert validate_main([str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_fails(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"schema": 99, "type": "run_end"}) + "\n")
        assert validate_main([str(path)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_missing_required_field_fails(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"schema": EVENT_SCHEMA, "type": "heartbeat", "sim": "s"})
            + "\n"
        )
        assert validate_main([str(path)]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_truncated_sim_fails_reconcile(self, tmp_path, capsys):
        path = self._good_stream(tmp_path)
        kept = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] != "sim_end"
        ]
        path.write_text("\n".join(kept) + "\n")
        assert validate_main([str(path), "--reconcile"]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_tampered_counter_fails_reconcile(self, tmp_path, capsys):
        path = self._good_stream(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["type"] == "counters":
                key = sorted(event["delta"])[0]
                event["delta"][key] += 1
                lines[i] = json.dumps(event, sort_keys=True)
                break
        path.write_text("\n".join(lines) + "\n")
        assert validate_main([str(path), "--reconcile"]) == 1
        assert "replayed" in capsys.readouterr().err


class TestServiceSessionReconcile:
    """Service streams (session_open/batch/answer/session_close)."""

    def _session_events(self, sid="s1", batches=2, answers=1, closed=True):
        events = [
            {
                "type": "session_open",
                "session": sid,
                "tenant": "t0",
                "cache_kb": 16,
                "max_blocks": 128,
            }
        ]
        for _ in range(batches):
            events.append({"type": "batch", "session": sid, "refs": 100})
        for _ in range(answers):
            events.append({"type": "answer", "session": sid, "what": "verdict"})
        if closed:
            events.append(
                {
                    "type": "session_close",
                    "session": sid,
                    "refs": 100 * batches,
                    "batches": batches,
                    "answers": answers,
                    "reason": "client",
                }
            )
        return events

    def test_complete_session_reconciles(self):
        assert reconcile_events(self._session_events()) == (1, [])

    def test_open_without_close_rejected(self):
        _, problems = reconcile_events(self._session_events(closed=False))
        assert problems == [
            "session s1: session_open without session_close "
            "(service died mid-session?)"
        ]

    def test_orphan_events_rejected(self):
        _, problems = reconcile_events(self._session_events()[1:])
        assert any("without session_open" in p for p in problems)

    def test_close_totals_must_match_stream(self):
        events = self._session_events(batches=3, answers=2)
        # Drop one batch and one answer: the close now over-claims.
        events.remove({"type": "batch", "session": "s1", "refs": 100})
        events.remove({"type": "answer", "session": "s1", "what": "verdict"})
        _, problems = reconcile_events(events)
        assert any("claims 3 batch(es), stream has 2" in p for p in problems)
        assert any("claims 2 answer(s), stream has 1" in p for p in problems)

    def test_truncated_service_stream_fails_cli(self, tmp_path, capsys):
        # The acceptance case: a service killed mid-session leaves opens
        # with no close, and `--reconcile` must reject the stream.
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"schema": EVENT_SCHEMA, "ts": 0.0, "pid": 1, **event})
            for event in self._session_events(closed=False)
        ]
        path.write_text("\n".join(lines) + "\n")
        assert validate_main([str(path), "--reconcile"]) == 1
        assert "session_open without session_close" in capsys.readouterr().err

    def test_truncated_stream_still_passes_without_reconcile(self, tmp_path):
        # Schema validation alone accepts the events (they are all
        # well-formed); only reconciliation sees the missing close.
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"schema": EVENT_SCHEMA, "ts": 0.0, "pid": 1, **event})
            for event in self._session_events(closed=False)
        ]
        path.write_text("\n".join(lines) + "\n")
        assert validate_main([str(path)]) == 0


# ----------------------------------------------------------------------
# Runner CLI flags
# ----------------------------------------------------------------------
class TestRunnerCLI:
    def test_metrics_requires_run_dir(self, capsys):
        with pytest.raises(SystemExit):
            runner_main(["table1", "--metrics"])
        assert "--metrics needs --run-dir" in capsys.readouterr().err

    def test_profile_requires_run_dir(self, capsys):
        with pytest.raises(SystemExit):
            runner_main(["table1", "--profile"])
        assert "--profile needs --run-dir" in capsys.readouterr().err

    def test_heartbeat_requires_metrics(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            runner_main(
                ["table1", "--run-dir", str(tmp_path), "--heartbeat-every", "100"]
            )
        assert "--heartbeat-every needs --metrics" in capsys.readouterr().err

    def test_negative_heartbeat_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            runner_main(
                [
                    "table1",
                    "--run-dir",
                    str(tmp_path),
                    "--metrics",
                    "--heartbeat-every",
                    "-5",
                ]
            )

    def test_fresh_run_truncates_stale_events(self, tmp_path, capsys):
        stale = tmp_path / "events.jsonl"
        tmp_path.mkdir(exist_ok=True)
        stale.write_text("stale line\n")
        code = runner_main(
            [
                "table1",
                "--quick",
                "--suite",
                "gcc",
                "--refs",
                "4000",
                "--warmup",
                "1000",
                "--run-dir",
                str(tmp_path),
                "--metrics",
                "--trace",
                "--jobs",
                "1",
            ]
        )
        assert code == 0
        lines = stale.read_text().splitlines()
        assert "stale line" not in lines
        events, problems = validate_lines(lines)
        assert problems == []
        assert {e["type"] for e in events} >= {"run_start", "run_end"}
        report = json.loads((tmp_path / "report.json").read_text())
        assert all("spans" in c for c in report["cells"])


# ----------------------------------------------------------------------
# Bench tracing
# ----------------------------------------------------------------------
class TestBenchTracing:
    def test_single_cell_iteration_spans(self):
        from repro.harness.bench import measure_single_cell

        tracer = Tracer("bench")
        measure_single_cell(2_000, 500, 0, repeats=2, tracer=tracer)
        spans = tracer.to_dicts()
        assert [s["name"] for s in spans] == ["bench.iteration"] * 2
        assert [s["attrs"]["repeat"] for s in spans] == [1, 2]
        assert all(s["attrs"]["seconds"] >= 0 for s in spans)


# ----------------------------------------------------------------------
# Schema drift: the validator and emitter enforce one contract
# ----------------------------------------------------------------------
class TestSchemaDrift:
    """An event name absent from the schema must fail hard.

    Before this regression suite, a type present in ``EVENT_TYPES`` but
    missing from ``REQUIRED_FIELDS`` crashed ``validate_lines`` with a
    KeyError instead of failing the stream with a diagnostic.  Both now
    come from one table in :mod:`repro.obs.events`, and the static
    obs-schema checker (RPR030-031) joins it with the emit sites.
    """

    def test_event_types_and_required_fields_agree(self):
        from repro.obs import validate as validate_mod
        from repro.obs.events import EVENT_TYPES, REQUIRED_FIELDS

        assert EVENT_TYPES == frozenset(REQUIRED_FIELDS)
        assert validate_mod.REQUIRED_FIELDS is REQUIRED_FIELDS

    def test_type_known_to_emitter_but_not_validator_fails_cleanly(
        self, monkeypatch
    ):
        from repro.obs import events as events_mod
        from repro.obs import validate as validate_mod

        monkeypatch.setattr(
            events_mod,
            "EVENT_TYPES",
            frozenset(events_mod.EVENT_TYPES | {"future_event"}),
        )
        line = json.dumps(
            {"schema": EVENT_SCHEMA, "type": "future_event", "ts": 0.0, "pid": 1}
        )
        events, problems = validate_mod.validate_lines([line])
        assert events == []
        assert len(problems) == 1 and "absent from schema" in problems[0]

    def test_unknown_event_name_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(
                {"schema": EVENT_SCHEMA, "type": "bogus", "ts": 0.0, "pid": 1}
            )
            + "\n"
        )
        assert validate_main([str(path)]) == 1
        assert "absent from schema" in capsys.readouterr().err
