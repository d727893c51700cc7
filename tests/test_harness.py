"""Tests for the fault-tolerant experiment harness.

Covers the acceptance criteria of the harness:

* a forced fault (exception or hang) in one cell leaves the other cells
  completed, is reflected as FAILED/TIMEOUT in ``report.json``, and
  exits non-zero only under ``--strict``;
* a subsequent ``--resume`` re-runs only the failed cell;
* two runs with the same seed produce byte-identical cell artifacts.
"""

import json

import pytest

from repro.experiments.base import ExperimentParams, ExperimentResult
from repro.experiments.runner import main
from repro.harness.cells import (
    VARIANTS,
    CellSpec,
    FaultInjection,
    InjectedFault,
    expand_cells,
    known_experiments,
    resolve,
    run_cell,
)
from repro.harness.checkpoint import SCHEMA_VERSION, CheckpointError, RunDirectory
from repro.harness.executor import HarnessConfig, backoff_delay, run_cells
from repro.harness.report import CellReport, CellStatus, RunReport

TINY = ExperimentParams(n_refs=4_000, warmup=1_000, suite=["gcc"])

#: No backoff sleeps, one retry.
FAST = HarnessConfig(retries=1, backoff_s=0.0)


def sample_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="toy",
        title="a toy table",
        headers=["bench", "rate", "count"],
        paper_reference="none",
    )
    result.add_row("gcc", 12.5, 3)
    result.add_row("swim", 0.0, 0)
    result.notes.append("a note")
    return result


class TestCellRegistry:
    def test_every_experiment_has_cells(self):
        for name in known_experiments():
            cells = expand_cells([name])
            assert cells, name
            for spec in cells:
                assert callable(resolve(spec))

    def test_multi_table_experiments_split(self):
        ids = [c.cell_id for c in expand_cells(["fig4", "fig6"])]
        assert ids == ["fig4.accuracy", "fig4.speedup", "fig6.amb8", "fig6.amb16"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            expand_cells(["fig99"])

    def test_run_cell_returns_result(self):
        result = run_cell(CellSpec("table1", "main"), TINY)
        assert result.experiment_id == "table1"
        assert result.rows

    def test_cell_order_matches_legacy_registry(self):
        # The "all" sweep must regenerate tables in the pre-harness order.
        assert known_experiments() == sorted(VARIANTS)


class TestResultRoundTrip:
    def test_lossless(self):
        result = sample_result()
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.to_dict() == result.to_dict()
        assert clone.rows == result.rows
        assert isinstance(clone.cell("gcc", "count"), int)
        assert isinstance(clone.cell("gcc", "rate"), float)

    def test_row_width_validated(self):
        payload = sample_result().to_dict()
        payload["rows"][0] = ["gcc", 1.0]
        with pytest.raises(ValueError):
            ExperimentResult.from_dict(payload)

    def test_params_round_trip(self):
        for params in (TINY, ExperimentParams()):
            assert ExperimentParams.from_dict(params.to_dict()) == params

    def test_params_from_dict_revalidates(self):
        bad = TINY.to_dict()
        bad["warmup"] = bad["n_refs"]
        with pytest.raises(ValueError):
            ExperimentParams.from_dict(bad)


class TestFaultInjection:
    def test_parse(self):
        inject = FaultInjection.parse("fig1.main:flaky:2")
        assert inject == FaultInjection("fig1.main", "flaky", 2)
        assert FaultInjection.parse("a.b:hang").kind == "hang"

    @pytest.mark.parametrize("spec", ["", "noseparator", "a.b:explode", "a.b:flaky:0"])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultInjection.parse(spec)

    def test_trigger_scoping(self):
        inject = FaultInjection("table1.main", "fail")
        inject.trigger(CellSpec("fig1", "main"), attempt=1)  # no-op
        with pytest.raises(InjectedFault):
            inject.trigger(CellSpec("table1", "main"), attempt=1)

    def test_flaky_stops_failing(self):
        inject = FaultInjection("t.m", "flaky", times=2)
        with pytest.raises(InjectedFault):
            inject.trigger(CellSpec("t", "m"), attempt=2)
        inject.trigger(CellSpec("t", "m"), attempt=3)  # succeeds


class TestBackoff:
    def test_deterministic_and_exponential(self):
        # Factor 2 per attempt, up to 25% jitter.
        cfg = HarnessConfig(backoff_s=0.1)
        d1 = backoff_delay(cfg, "fig1.main", 1, seed=0)
        assert d1 == backoff_delay(cfg, "fig1.main", 1, seed=0)
        assert d1 != backoff_delay(cfg, "fig1.main", 1, seed=1)
        d2 = backoff_delay(cfg, "fig1.main", 2, seed=0)
        assert 0.1 <= d1 <= 0.1 * 1.25
        assert 0.2 <= d2 <= 0.2 * 1.25

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(timeout_s=0)
        with pytest.raises(ValueError):
            HarnessConfig(retries=-1)
        with pytest.raises(ValueError):
            HarnessConfig(backoff_s=-0.5)


class TestRunDirectory:
    def test_save_load_round_trip(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.prepare(TINY, resume=False)
        result = sample_result()
        path = rd.save_cell("toy.main", result)
        assert path.exists()
        loaded = rd.load_cell("toy.main")
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert rd.completed_cells() == ["toy.main"]

    def test_missing_and_corrupt_artifacts_count_as_absent(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False)
        assert rd.load_cell("nope.main") is None
        rd.cell_path("bad.main").write_text("{not json")
        assert rd.load_cell("bad.main") is None
        rd.cell_path("old.main").write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1, "cell": "old.main",
                        "result": sample_result().to_dict()})
        )
        assert rd.load_cell("old.main") is None

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            RunDirectory(tmp_path / "empty").prepare(TINY, resume=True)

    def test_params_mismatch_refused(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False)
        other = ExperimentParams(n_refs=5_000, warmup=1_000, suite=["gcc"])
        with pytest.raises(CheckpointError, match="not be comparable"):
            RunDirectory(tmp_path).prepare(other, resume=True)


class TestExecutor:
    CELLS = [CellSpec("table1", "main"), CellSpec("fig3", "main")]

    def test_clean_run(self):
        report = run_cells([CellSpec("table1", "main")], TINY, FAST)
        assert [c.status for c in report.cells] == [CellStatus.OK]
        assert report.ok and report.exit_code(strict=True) == 0

    def test_fault_in_one_cell_leaves_others_completed(self):
        inject = FaultInjection("table1.main", "fail")
        report = run_cells(self.CELLS, TINY, FAST, inject=inject)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["table1.main"].status is CellStatus.FAILED
        assert by_id["table1.main"].attempts == 2  # retried before giving up
        assert "InjectedFault" in by_id["table1.main"].error
        assert by_id["fig3.main"].status is CellStatus.OK
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_flaky_cell_is_retried_to_success(self):
        inject = FaultInjection("table1.main", "flaky", times=1)
        report = run_cells([CellSpec("table1", "main")], TINY, FAST, inject=inject)
        (cell,) = report.cells
        assert cell.status is CellStatus.RETRIED
        assert cell.attempts == 2
        assert cell.error is None
        assert report.ok

    def test_hang_is_killed_as_timeout(self):
        config = HarnessConfig(timeout_s=1.0, retries=0, backoff_s=0.0)
        inject = FaultInjection("table1.main", "hang")
        report = run_cells(self.CELLS, TINY, config, inject=inject)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["table1.main"].status is CellStatus.TIMEOUT
        assert by_id["fig3.main"].status is CellStatus.OK

    def test_checkpoint_resume_reruns_only_failed_cell(self, tmp_path):
        rd = RunDirectory(tmp_path)
        rd.prepare(TINY, resume=False)
        inject = FaultInjection("fig3.main", "fail")
        first = run_cells(self.CELLS, TINY, FAST, run_dir=rd, inject=inject)
        assert {c.cell_id for c in first.degraded} == {"fig3.main"}
        assert rd.load_cell("table1.main") is not None
        assert rd.load_cell("fig3.main") is None

        second = run_cells(self.CELLS, TINY, FAST, run_dir=rd, resume=True)
        by_id = {c.cell_id: c for c in second.cells}
        assert by_id["table1.main"].status is CellStatus.SKIPPED
        assert by_id["fig3.main"].status is CellStatus.OK
        assert rd.load_cell("fig3.main") is not None

        # report.json is deterministic: the resumed cell serialises
        # under its origin status (OK), not SKIPPED, and carries no
        # durations — so a recovered run converges byte-for-byte.
        report_payload = json.loads(rd.report_path.read_text())
        assert report_payload["ok"] is True
        assert report_payload["summary"]["skipped"] == 0
        assert report_payload["summary"]["ok"] == 2
        statuses = {c["cell"]: c["status"] for c in report_payload["cells"]}
        assert statuses == {"table1.main": "OK", "fig3.main": "OK"}
        assert all("duration_s" not in c for c in report_payload["cells"])

    def test_worker_results_match_inline_results(self):
        spec = CellSpec("table1", "main")
        isolated = run_cells([spec], TINY, FAST)
        assert isolated.ok
        inline = run_cell(spec, TINY)
        # Compare through the report callback capture.
        captured = {}
        run_cells([spec], TINY, FAST,
                  on_cell=lambda s, c, r: captured.update(result=r))
        assert captured["result"].to_dict() == inline.to_dict()

    def test_same_seed_artifacts_are_byte_identical(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            rd = RunDirectory(tmp_path / sub)
            rd.prepare(TINY, resume=False)
            report = run_cells([CellSpec("table1", "main")], TINY, FAST, run_dir=rd)
            assert report.ok
            paths.append(rd.cell_path("table1.main"))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestReport:
    def make_report(self):
        report = RunReport(params=TINY.to_dict())
        report.add(CellReport("fig1.main", CellStatus.OK, attempts=1, duration_s=1.0))
        report.add(CellReport("fig2.main", CellStatus.TIMEOUT, attempts=2,
                              duration_s=4.0, error="no result within 2s"))
        report.add(CellReport("fig3.main", CellStatus.SKIPPED, attempts=0))
        return report

    def test_counts_and_exit_codes(self):
        report = self.make_report()
        assert not report.ok
        assert [c.cell_id for c in report.degraded] == ["fig2.main"]
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_to_dict_summary(self):
        payload = self.make_report().to_dict()
        assert payload["schema"] == 2
        assert payload["summary"] == {
            "ok": 1, "retried": 0, "timeout": 1, "failed": 0, "skipped": 1,
        }
        assert payload["cells"][1]["error"] == "no result within 2s"

    def test_resumed_cell_serializes_under_origin_status(self):
        report = RunReport(params=TINY.to_dict())
        report.add(
            CellReport(
                "fig1.main", CellStatus.SKIPPED, attempts=0,
                origin_status="RETRIED", origin_attempts=3,
            )
        )
        payload = report.to_dict()
        assert payload["cells"][0]["status"] == "RETRIED"
        assert payload["cells"][0]["attempts"] == 3
        assert payload["summary"]["retried"] == 1
        assert payload["summary"]["skipped"] == 0
        # The in-memory status (and thus the printed table) stays SKIPPED.
        assert "SKIPPED" in report.format_table()

    def test_breaker_skipped_cell_is_degraded(self):
        report = RunReport(params=TINY.to_dict())
        report.add(
            CellReport(
                "fig1.main", CellStatus.SKIPPED, attempts=0,
                error="infrastructure circuit breaker open",
            )
        )
        assert not report.ok
        assert report.exit_code(strict=True) == 1
        assert report.to_dict()["cells"][0]["status"] == "SKIPPED"

    def test_format_table(self):
        text = self.make_report().format_table()
        assert "== harness report ==" in text
        assert "TIMEOUT" in text and "SKIPPED" in text
        assert "degraded: fig2.main [TIMEOUT]" in text


class TestCLIHarness:
    TAIL = ["--refs", "4000", "--warmup", "1000", "--suite", "gcc",
            "--backoff", "0.01"]
    ARGS = ["table1"] + TAIL

    def test_run_dir_and_report(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--run-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Victim-cache hit rates" in out
        assert "== harness report ==" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["cells"][0]["status"] == "OK"

    def test_injected_fault_strict_and_resume(self, tmp_path, capsys):
        args = ["table1", "fig3"] + self.TAIL + ["--run-dir", str(tmp_path)]
        rc = main(args + ["--inject-fault", "fig3.main:fail", "--strict"])
        assert rc == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        statuses = {c["cell"]: c["status"] for c in payload["cells"]}
        assert statuses == {"table1.main": "OK", "fig3.main": "FAILED"}
        capsys.readouterr()

        rc = main(args + ["--resume", "--strict"])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        statuses = {c["cell"]: c["status"] for c in payload["cells"]}
        # The resumed cell serialises under its origin status — the
        # final report is indistinguishable from an uninterrupted run.
        assert statuses == {"table1.main": "OK", "fig3.main": "OK"}

    def test_resume_with_positional_dir(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--run-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(self.ARGS + ["--resume", str(tmp_path)])
        assert rc == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_resume_requires_dir(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--resume"])

    def test_timeout_flag_kills_hung_cell(self, tmp_path, capsys):
        rc = main(self.ARGS + [
            "--inject-fault", "table1.main:hang",
            "--timeout", "1", "--retries", "0", "--strict",
        ])
        assert rc == 1
        assert "TIMEOUT" in capsys.readouterr().out
