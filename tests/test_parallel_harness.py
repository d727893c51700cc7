"""Tests for the parallel sweep scheduler and the bench harness.

Covers the PR's acceptance properties:

* ``jobs=1`` and ``jobs=N`` produce identical ``report.json`` cell
  statuses and byte-identical checkpoint artifacts — including under
  flaky fault injection and across a resume;
* worker processes are always reaped and closed: a 200-cell sweep leaves
  no children (zombie or live) behind and does not leak fds;
* ``--jobs`` CLI semantics (default, validation);
* the ``single_node_service`` bench cell emits its artifact, each of its
  committed limits fires, and the committed baseline carries the service
  limits and a perfbench floor pair for every benchmark workload.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentParams, ExperimentResult
from repro.experiments.runner import main
from repro.harness import bench
from repro.harness.cells import (
    SHARDED_EXPERIMENTS,
    VARIANTS,
    CellSpec,
    FaultInjection,
    expand_cells,
)
from repro.harness.checkpoint import RunDirectory
from repro.harness.executor import HarnessConfig, _start_method, run_cells
from repro.harness.report import CellStatus

TINY = ExperimentParams(n_refs=4_000, warmup=1_000, suite=["gcc"])

CELLS = [CellSpec("table1", "main"), CellSpec("fig3", "main")]


def config(**kw):
    kw.setdefault("retries", 1)
    kw.setdefault("backoff_s", 0.0)
    return HarnessConfig(**kw)


def statuses(report):
    return {c.cell_id: c.status.value for c in report.cells}


def artifact_bytes(run_dir, specs):
    return {s.cell_id: run_dir.cell_path(s.cell_id).read_bytes() for s in specs}


class TestConfigValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            HarnessConfig(jobs=0)


class TestParallelEquivalence:
    def run_sweep(
        self, tmp_path, sub, jobs, inject=None, resume=False,
        cells=CELLS, params=TINY,
    ):
        rd = RunDirectory(tmp_path / sub)
        rd.prepare(params, resume=resume)
        report = run_cells(
            cells, params, config(jobs=jobs), run_dir=rd, inject=inject,
            resume=resume,
        )
        return rd, report

    def test_report_order_is_spec_order(self, tmp_path):
        rd, report = self.run_sweep(tmp_path, "p", jobs=8)
        assert [c.cell_id for c in report.cells] == [s.cell_id for s in CELLS]
        payload = json.loads(rd.report_path.read_text())
        assert [c["cell"] for c in payload["cells"]] == [s.cell_id for s in CELLS]

    def test_jobs1_and_jobs8_byte_identical_artifacts(self, tmp_path):
        rd1, rep1 = self.run_sweep(tmp_path, "serial", jobs=1)
        rd8, rep8 = self.run_sweep(tmp_path, "parallel", jobs=8)
        assert statuses(rep1) == statuses(rep8)
        assert all(s == "OK" for s in statuses(rep1).values())
        assert artifact_bytes(rd1, CELLS) == artifact_bytes(rd8, CELLS)

    def test_fig3sweep_jobs1_and_jobs2_byte_identical_artifacts(self, tmp_path):
        # The whole Figure 3 grid: one cell per Section-5 benchmark.
        cells = expand_cells(["fig3sweep"])
        params = ExperimentParams(n_refs=1_200, warmup=200, seed=0)
        grid = {"cells": cells, "params": params}
        rd1, rep1 = self.run_sweep(tmp_path, "serial", 1, **grid)
        rd2, rep2 = self.run_sweep(tmp_path, "parallel", 2, **grid)
        assert len(cells) == 12
        assert statuses(rep1) == statuses(rep2)
        assert set(statuses(rep1).values()) == {"OK"}
        assert artifact_bytes(rd1, cells) == artifact_bytes(rd2, cells)

    def test_equivalent_under_flaky_injection_and_resume(self, tmp_path):
        inject = FaultInjection("fig3.main", "flaky", times=1)
        rd1, rep1 = self.run_sweep(tmp_path, "serial", jobs=1, inject=inject)
        rd8, rep8 = self.run_sweep(tmp_path, "parallel", jobs=8, inject=inject)
        expected = {"table1.main": "OK", "fig3.main": "RETRIED"}
        assert statuses(rep1) == statuses(rep8) == expected
        assert artifact_bytes(rd1, CELLS) == artifact_bytes(rd8, CELLS)

        # Resume each run dir with the *other* jobs width: everything is
        # already checkpointed, so both skip all cells and artifacts keep
        # their bytes.
        before = artifact_bytes(rd1, CELLS)
        _, resumed1 = self.run_sweep(tmp_path, "serial", jobs=8, resume=True)
        _, resumed8 = self.run_sweep(tmp_path, "parallel", jobs=1, resume=True)
        assert set(statuses(resumed1).values()) == {"SKIPPED"}
        assert statuses(resumed1) == statuses(resumed8)
        assert artifact_bytes(rd1, CELLS) == before

    def test_failures_stay_isolated_under_parallel_dispatch(self, tmp_path):
        inject = FaultInjection("table1.main", "fail")
        _, report = self.run_sweep(tmp_path, "p", jobs=8, inject=inject)
        assert statuses(report) == {"table1.main": "FAILED", "fig3.main": "OK"}


def _toy_cell(params: ExperimentParams) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="toy", title="toy", headers=["k", "v"], paper_reference=""
    )
    result.add_row("n_refs", params.n_refs)
    return result


@pytest.mark.skipif(
    _start_method() != "fork",
    reason="monkeypatched registry only reaches workers under fork",
)
class TestWorkerHygiene:
    def test_200_cell_sweep_leaves_no_children_or_fds(self, monkeypatch):
        monkeypatch.setitem(
            VARIANTS, "toy", {f"c{i:03d}": _toy_cell for i in range(200)}
        )
        specs = expand_cells(["toy"])
        assert len(specs) == 200
        fds_before = len(os.listdir("/proc/self/fd"))

        report = run_cells(specs, TINY, config(jobs=8))

        assert len(report.cells) == 200
        assert all(c.status is CellStatus.OK for c in report.cells)
        # Every worker Process was joined (no zombies to reap) and
        # close()d (no lingering sentinel/pipe fds).
        assert multiprocessing.active_children() == []
        fds_after = len(os.listdir("/proc/self/fd"))
        assert fds_after <= fds_before + 2

    def test_killed_workers_are_reaped_too(self, monkeypatch):
        monkeypatch.setitem(VARIANTS, "toy", {"main": _toy_cell})
        inject = FaultInjection("toy.main", "hang")
        report = run_cells(
            expand_cells(["toy"]),
            TINY,
            config(timeout_s=0.5, retries=0),
            inject=inject,
        )
        assert report.cells[0].status is CellStatus.TIMEOUT
        assert multiprocessing.active_children() == []


class TestCLIJobs:
    TAIL = ["--refs", "4000", "--warmup", "1000", "--suite", "gcc",
            "--backoff", "0.01"]

    def test_jobs_flag_runs_cells(self, tmp_path, capsys):
        rc = main(["table1", "fig3"] + self.TAIL
                  + ["--run-dir", str(tmp_path), "--jobs", "4"])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert {c["cell"]: c["status"] for c in payload["cells"]} == {
            "table1.main": "OK", "fig3.main": "OK"
        }

    def test_jobs_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1"] + self.TAIL + ["--jobs", "0"])

    def test_all_excludes_sharded_sweeps(self, capsys):
        from repro.experiments.runner import _build_parser, _validate_names

        names = _validate_names(_build_parser(), ["all"])
        assert "fig3" in names
        assert not (set(names) & SHARDED_EXPERIMENTS)
        # But sharded families remain directly addressable.
        assert expand_cells(["fig3sweep"])


ROOT = Path(__file__).resolve().parent.parent


class TestBenchHarness:
    """The single_node_service cell, shrunk to a few sessions."""

    @pytest.fixture
    def few_sessions(self, monkeypatch):
        monkeypatch.setattr(bench, "SESSIONS", 16)
        monkeypatch.setattr(bench, "REFS_PER_SESSION", 2_000)
        monkeypatch.setattr(bench, "BATCH_SIZE", 500)

    def baseline(self, tmp_path, **limits):
        entry = {"min_refs_per_sec": 1.0, "sessions": 1, "max_answer_p99_ms": 1e9}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"single_node_service": {**entry, **limits}}))
        return str(path)

    def test_main_emits_artifact_and_gate_passes(self, tmp_path, few_sessions):
        out = tmp_path / "BENCH_service.json"
        rc = bench.main(["--out", str(out), "--check-against", self.baseline(tmp_path)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == bench.BENCH_SCHEMA
        cell = payload["single_node_service"]
        assert cell["sessions"] == cell["concurrency"] == 16
        assert cell["refs_done"] == 16 * 2_000
        assert cell["errors"] == 0 and cell["refs_per_sec"] > 0
        assert 1 <= cell["peak_sessions"] <= 16

    def test_regression_gate_fires(self, tmp_path, few_sessions, capsys):
        baseline = self.baseline(tmp_path, min_refs_per_sec=1e12)
        argv = ["--out", str(tmp_path / "out.json"), "--check-against", baseline]
        rc = bench.main(argv)
        assert rc == 1
        assert "throughput" in capsys.readouterr().err

    def test_each_limit_fires_alone(self):
        limits = {
            "min_refs_per_sec": 100.0, "sessions": 1000, "max_answer_p99_ms": 500.0
        }
        good = {"refs_per_sec": 200.0, "peak_sessions": 1000, "answer_p99_ms": 100.0}
        assert bench.check_service(good, limits) == []
        for key, bad, word in (
            ("refs_per_sec", 99.0, "throughput"),
            ("peak_sessions", 999, "live session"),
            ("answer_p99_ms", 501.0, "p99"),
        ):
            (problem,) = bench.check_service({**good, key: bad}, limits)
            assert word in problem

    def test_committed_baseline_is_readable(self):
        path = ROOT / "benchmarks" / "BENCH_baseline.json"
        limits = bench.read_limits(str(path))
        assert limits["sessions"] == bench.SESSIONS == 1000
        # One floor pair per benchmark workload, read by CI's bench job.
        floors = json.loads(path.read_text())["perfbench"]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(floors) == {w["name"] for w in spec["workloads"]}
        for pair in floors.values():
            assert set(pair) == {"refs_per_s", "aux_refs_per_s"}
            assert all(floor > 0 for floor in pair.values())
