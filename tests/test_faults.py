"""Unit tests: fault plans, injection runtime, durable writes, doctor."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.experiments.base import ExperimentParams
from repro.faults import FaultPlan, FaultSpec, InjectedCrash, parse_plan
from repro.faults.plan import _NTH_MOD
from repro.harness.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    RunDirectory,
    verify_artifact_text,
)
from repro.harness.doctor import (
    VERDICT_CLEAN,
    VERDICT_CORRUPT,
    VERDICT_REPAIRABLE,
    VERDICT_REPAIRED,
    diagnose,
)
from repro.harness.doctor import main as doctor_main
from repro.harness.durable import atomic_write_text, content_checksum
from repro.obs.validate import split_torn_tail

TINY = ExperimentParams(n_refs=4_000, warmup=1_000, suite=["gcc"])


def sample_result():
    from repro.experiments.base import ExperimentResult

    return ExperimentResult(
        experiment_id="toy",
        title="toy table",
        headers=["bench", "value"],
        rows=[["gcc", 1.25]],
    )


@pytest.fixture(autouse=True)
def _disarm():
    faults.deactivate()
    yield
    faults.deactivate()


# ----------------------------------------------------------------------
# Plan grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_full_and_defaults(self):
        spec = FaultSpec.parse("checkpoint_write:kill:7:2")
        assert spec == FaultSpec("checkpoint_write", "kill", seed=7, repeat=2)
        assert FaultSpec.parse("sim_tick:delay") == FaultSpec("sim_tick", "delay")

    def test_nth_follows_seed(self):
        for seed in range(8):
            assert FaultSpec("sim_tick", "kill", seed=seed).nth == 1 + seed % _NTH_MOD

    def test_rejects_unknown_site_kind_and_bad_ints(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec.parse("nowhere:kill")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("sim_tick:meteor")
        with pytest.raises(ValueError, match="must be integers"):
            FaultSpec.parse("sim_tick:kill:soon")
        with pytest.raises(ValueError, match="SITE:KIND"):
            FaultSpec.parse("sim_tick")

    def test_plan_parse_format_round_trip(self):
        plan = parse_plan("sim_tick:kill:2,event_append:partial:0:3")
        assert len(plan.specs) == 2
        assert parse_plan(plan.format()) == plan
        with pytest.raises(ValueError, match="empty fault plan"):
            parse_plan(" , ")

    def test_plan_truthiness_and_sites(self):
        assert not FaultPlan()
        plan = parse_plan("sim_tick:kill,event_append:delay")
        assert plan
        assert plan.sites() == ["event_append", "sim_tick"]


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class TestRuntime:
    def test_disarmed_fire_is_a_no_op(self):
        assert faults.active_plan() is None
        faults.fire("checkpoint_write")  # must not raise

    def test_exception_fires_on_nth_hit_then_respects_repeat(self):
        faults.activate(parse_plan("worker_spawn:exception:1"))  # nth=2
        faults.fire("worker_spawn")  # hit 1: below nth
        with pytest.raises(InjectedCrash, match="worker_spawn"):
            faults.fire("worker_spawn")  # hit 2: fires
        faults.fire("worker_spawn")  # repeat budget (1) spent

    def test_repeat_zero_is_unbounded(self):
        faults.activate(parse_plan("worker_spawn:enospc:0:0"))
        for _ in range(5):
            with pytest.raises(OSError) as excinfo:
                faults.fire("worker_spawn")
            assert excinfo.value.errno == errno.ENOSPC

    def test_activate_resets_counters(self):
        faults.activate(parse_plan("worker_spawn:exception:1"))
        faults.fire("worker_spawn")
        faults.activate(parse_plan("worker_spawn:exception:1"))
        faults.fire("worker_spawn")  # counter restarted: still below nth

    def test_sim_tick_every_gated_on_armed_site(self):
        assert faults.sim_tick_every() == 0
        faults.activate(parse_plan("event_append:kill"))
        assert faults.sim_tick_every() == 0
        faults.activate(parse_plan("sim_tick:exception"))
        assert faults.sim_tick_every() == faults.SIM_TICK_EVERY

    @pytest.mark.parametrize(
        "driver",
        ["simulate", "simulate_vector", "simulate_vector_buffered",
         "simulate_pac", "simulate_shared", "measure_accuracy"],
    )
    def test_sim_tick_fires_in_every_driver(self, driver):
        # Every driver walks the simulator's one measured window, so an
        # armed sim_tick site fires inside each of them (2500 measured
        # references here: the 1000-reference cadence, not only the end).
        from repro.buffers import amb
        from repro.cache.geometry import CacheGeometry
        from repro.core.accuracy import measure_accuracy
        from repro.system import BASELINE, simulate, simulate_pac, simulate_shared
        from repro.system.vector import simulate_vector
        from repro.workloads.spec_analogs import build

        trace = build("gcc", 3_000, 0)
        runs = {
            "simulate": lambda: simulate(
                trace, BASELINE, warmup=500, engine="scalar"
            ),
            "simulate_vector": lambda: simulate_vector(trace, BASELINE, warmup=500),
            "simulate_vector_buffered": lambda: simulate_vector(
                trace, amb.vic_pre_exc(), warmup=500
            ),
            "simulate_pac": lambda: simulate_pac(trace, warmup=500),
            "simulate_shared": lambda: simulate_shared(
                [build("go", 1_500, 0), build("li", 1_500, 0)],
                warmup_fraction=1 / 6,
            ),
            "measure_accuracy": lambda: measure_accuracy(
                trace.addresses[500:], CacheGeometry(size=16 * 1024, assoc=1)
            ),
        }
        faults.activate(parse_plan("sim_tick:exception:0:0"))
        with pytest.raises(InjectedCrash, match="sim_tick"):
            runs[driver]()

    def test_partial_tears_file_and_exits(self, tmp_path):
        # partial ends in os._exit, so drive it in a child interpreter.
        target = tmp_path / "artifact.json"
        payload = json.dumps({"schema": 2, "data": list(range(40))})
        code = (
            "from pathlib import Path\n"
            "from repro import faults\n"
            "faults.activate(faults.parse_plan('checkpoint_write:partial:0'))\n"
            f"faults.fire('checkpoint_write', path=Path({str(target)!r}), "
            f"payload={payload!r})\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == faults.runtime.TORN_EXIT
        torn = target.read_text()
        assert torn == payload[: len(payload) // 2]
        with pytest.raises(json.JSONDecodeError):
            json.loads(torn)

    def test_delay_sleeps_deterministically(self, monkeypatch):
        slept = []
        import repro.faults.runtime as runtime

        monkeypatch.setattr(runtime.time, "sleep", slept.append)
        faults.activate(parse_plan("sim_tick:delay:3:0"))  # nth hit = 1
        faults.fire("sim_tick")
        faults.activate(parse_plan("sim_tick:delay:3:0"))
        faults.fire("sim_tick")
        assert slept[0] == slept[1]
        assert 0.01 <= slept[0] <= 0.2


# ----------------------------------------------------------------------
# Durable writes (satellite: the fsync regression test)
# ----------------------------------------------------------------------
class TestDurable:
    def test_atomic_write_fsyncs_data_before_replace_and_dir_after(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b)),
        )
        atomic_write_text(tmp_path / "x.json", "{}\n")
        # Data fsync strictly before the rename, directory fsync after:
        # miss either and a power cut can leave the rename durable with
        # the data (or the directory entry) lost.
        assert calls == ["fsync", "replace", "fsync"]
        assert (tmp_path / "x.json").read_text() == "{}\n"
        assert not (tmp_path / "x.json.tmp").exists()

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "f"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_content_checksum_is_stable(self):
        assert content_checksum("abc") == content_checksum("abc")
        assert content_checksum("abc") != content_checksum("abd")


# ----------------------------------------------------------------------
# Checkpoint schema 2
# ----------------------------------------------------------------------
class TestCheckpointV2:
    def test_artifact_carries_checksum_and_origin(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False, cells=["toy.main"])
        rd.save_cell("toy.main", sample_result(), status="RETRIED", attempts=2)
        payload = json.loads(rd.cell_path("toy.main").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["origin"] == {"status": "RETRIED", "attempts": 2}
        entry = rd.load_checkpoint("toy.main")
        assert entry is not None
        assert (entry.status, entry.attempts) == ("RETRIED", 2)
        assert entry.checksum == payload["checksum"]
        manifest = rd.read_manifest()
        assert manifest["checksums"]["toy.main"] == payload["checksum"]
        assert manifest["cells"] == ["toy.main"]

    def test_checksum_mismatch_counts_as_absent(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False)
        rd.save_cell("toy.main", sample_result())
        payload = json.loads(rd.cell_path("toy.main").read_text())
        payload["result"]["rows"][0][1] = 9.99  # tamper, keep old checksum
        rd.cell_path("toy.main").write_text(json.dumps(payload))
        assert rd.load_checkpoint("toy.main") is None
        assert rd.completed_cells() == []

    def test_verify_artifact_text_problems(self):
        assert verify_artifact_text("{oops")[1].startswith("not valid JSON")
        assert "not a JSON object" in verify_artifact_text("[1]")[1]
        doc = {"schema": SCHEMA_VERSION, "cell": "a.b", "checksum": "bad",
               "result": {"x": 1}}
        assert "checksum mismatch" in verify_artifact_text(json.dumps(doc))[1]
        good = dict(doc, checksum=content_checksum(json.dumps({"x": 1},
                                                             sort_keys=True)))
        payload, problem = verify_artifact_text(json.dumps(good), "a.b")
        assert problem is None and payload["cell"] == "a.b"
        assert "!=" in verify_artifact_text(json.dumps(good), "other")[1]

    def test_manifest_backup_written_on_rewrite(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False, cells=["toy.main"])
        before = rd.manifest_path.read_text()
        rd.save_cell("toy.main", sample_result())
        assert rd.manifest_backup_path.read_text() == before
        assert rd.manifest_path.read_text() != before

    def test_torn_manifest_points_at_doctor(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False)
        rd.manifest_path.write_text('{"schema": 2, "par')
        with pytest.raises(CheckpointError, match="doctor"):
            RunDirectory(tmp_path).prepare(TINY, resume=True)


# ----------------------------------------------------------------------
# Torn-tail tolerance (satellite: repro.obs.validate)
# ----------------------------------------------------------------------
class TestSplitTornTail:
    LINE = json.dumps({"schema": 1, "type": "heartbeat"})

    def test_clean_stream_untouched(self):
        text = self.LINE + "\n" + self.LINE + "\n"
        lines, warning = split_torn_tail(text)
        assert warning is None and len(lines) == 2

    def test_torn_tail_dropped_with_warning(self):
        text = self.LINE + "\n" + self.LINE[: len(self.LINE) // 2]
        lines, warning = split_torn_tail(text)
        assert len(lines) == 1
        assert "torn final line" in warning

    def test_unterminated_but_parseable_tail_kept(self):
        text = self.LINE + "\n" + self.LINE  # crash exactly before \n
        lines, warning = split_torn_tail(text)
        assert warning is None and len(lines) == 2

    def test_mid_file_corruption_still_fails_validate(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        events = tmp_path / "events.jsonl"
        events.write_text('{"torn mid', )
        events.write_text(
            '{"broken\n'
            + json.dumps({"schema": 1, "type": "heartbeat", "sim": "s",
                          "refs_done": 1, "refs_per_sec": 1.0, "ts": 0,
                          "pid": 1}) + "\n"
        )
        assert validate_main([str(events)]) == 1

    def test_torn_tail_passes_validate_with_warning(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        heartbeat = json.dumps({"schema": 1, "type": "heartbeat", "sim": "s",
                                "refs_done": 1, "refs_per_sec": 1.0, "ts": 0,
                                "pid": 1})
        events = tmp_path / "events.jsonl"
        events.write_text(heartbeat + "\n" + heartbeat[:20])
        assert validate_main([str(events)]) == 0
        assert "torn final line" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Doctor
# ----------------------------------------------------------------------
class TestDoctor:
    def _run_dir_with_cells(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False, cells=["a.main", "b.main"])
        rd.save_cell("a.main", sample_result())
        rd.save_cell("b.main", sample_result())
        return rd

    def test_clean_directory(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        rd.save_report({"schema": 2, "cells": [], "summary": {}, "ok": True})
        diag = diagnose(rd.path)
        assert diag.verdict in (VERDICT_CLEAN, VERDICT_REPAIRED)
        # A second pass over the (now settled) directory is CLEAN.
        assert diagnose(rd.path).verdict == VERDICT_CLEAN

    def test_torn_artifact_is_quarantined_and_reported_lost(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        text = rd.cell_path("b.main").read_text()
        rd.cell_path("b.main").write_text(text[: len(text) // 2])
        diag = diagnose(rd.path)
        assert diag.verdict == VERDICT_REPAIRED
        assert diag.cells_lost == ["b.main"]
        assert diag.cells_intact == ["a.main"]
        assert (rd.quarantine_path / "b.main.json").exists()
        assert "b.main" not in rd.read_manifest()["checksums"]
        report = json.loads(rd.report_path.read_text())
        assert report["ok"] is False
        # The repaired directory now resumes: only b.main re-runs.
        RunDirectory(rd.path).prepare(TINY, resume=True)

    def test_unregistered_artifact_is_reregistered(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        manifest = rd.read_manifest()
        del manifest["checksums"]["a.main"]  # crash between write+register
        atomic_write_text(
            rd.manifest_path, json.dumps(manifest, sort_keys=True) + "\n"
        )
        diag = diagnose(rd.path)
        assert diag.verdict == VERDICT_REPAIRED
        assert diag.cells_lost == []
        assert "a.main" in rd.read_manifest()["checksums"]

    def test_torn_manifest_restored_from_backup(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        rd.manifest_path.write_text('{"schema": 2, "cells": [')
        diag = diagnose(rd.path)
        assert diag.verdict == VERDICT_REPAIRED
        manifest = rd.read_manifest()
        assert set(manifest["checksums"]) == {"a.main", "b.main"}
        assert diag.cells_lost == []

    def test_no_manifest_no_backup_is_corrupt(self, tmp_path):
        (tmp_path / "cells").mkdir(parents=True)
        (tmp_path / "manifest.json").write_text("{definitely torn")
        diag = diagnose(tmp_path)
        assert diag.verdict == VERDICT_CORRUPT
        assert diag.exit_code == 2

    def test_torn_event_tail_truncated_and_unclosed_sim_dropped(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        ev = lambda **kw: json.dumps({"schema": 1, "ts": 0, "pid": 1, **kw})
        closed = [
            ev(type="sim_start", sim="p-1", bench="gcc", policy="base",
               refs=10, warmup=0),
            ev(type="sim_end", sim="p-1", refs=10, wall_s=0.1, final={}),
        ]
        unclosed = ev(type="sim_start", sim="p-2", bench="gcc", policy="base",
                      refs=10, warmup=0)
        torn = ev(type="heartbeat", sim="p-2", refs_done=5, refs_per_sec=1.0)
        (rd.path / "events.jsonl").write_text(
            "\n".join(closed + [unclosed]) + "\n" + torn[:25]
        )
        diag = diagnose(rd.path)
        assert diag.verdict == VERDICT_REPAIRED
        remaining = (rd.path / "events.jsonl").read_text()
        assert remaining.endswith("\n")
        assert '"p-2"' not in remaining
        assert '"p-1"' in remaining

    def test_recovers_event_glued_to_torn_fragment(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        ev = lambda **kw: json.dumps({"schema": 1, "ts": 0, "pid": 1, **kw})
        good = ev(type="counters", sim="p-1", delta={"x": 1})
        fragment = ev(type="heartbeat", sim="p-9", refs_done=1,
                      refs_per_sec=1.0)[:19]
        (rd.path / "events.jsonl").write_text(fragment + good + "\n")
        diagnose(rd.path)
        remaining = (rd.path / "events.jsonl").read_text()
        assert remaining == good + "\n"

    def test_dry_run_changes_nothing(self, tmp_path):
        rd = self._run_dir_with_cells(tmp_path)
        text = rd.cell_path("b.main").read_text()
        rd.cell_path("b.main").write_text(text[: len(text) // 2])
        diag = diagnose(rd.path, apply=False)
        assert diag.verdict == VERDICT_REPAIRABLE
        assert diag.exit_code == 1
        assert rd.cell_path("b.main").exists()
        assert not rd.quarantine_path.exists()

    def test_cli_json_output(self, tmp_path, capsys):
        rd = self._run_dir_with_cells(tmp_path)
        rd.save_report({"schema": 2, "cells": [], "summary": {}, "ok": True})
        diagnose(rd.path)  # settle
        assert doctor_main([str(rd.path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == VERDICT_CLEAN
        assert doctor_main([str(tmp_path / "nope")]) == 2
