"""Bad command-line input exits 2 with a usage error naming the flag.

Each CLI checks its flags as they are parsed, with the same code the
library runs the values through (``ServeConfig``, ``parse_plan``, the
SHARDS estimator, the workload generator's name check), so a bad value
never surfaces as a traceback from inside the run or as a hang.  The
environment variables ``REPRO_INJECT`` and ``REPRO_CHECK_INVARIANTS``
are refused the same way, naming the variable.

The run-directory tools (``doctor``, ``obs.validate``) meet hostile
files instead: bytes that are not UTF-8 are corruption, named by file
and byte offset, and each tool still ends with its usual verdict.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Tuple

import pytest

from repro.experiments.base import ExperimentParams, ExperimentResult
from repro.experiments.runner import main as experiments_main
from repro.harness import bench, invariants
from repro.harness.checkpoint import RunDirectory
from repro.harness.doctor import diagnose
from repro.harness.doctor import main as doctor_main
from repro.mrc.cli import main as mrc_main
from repro.obs.validate import main as validate_main
from repro.serve.__main__ import main as serve_main
from repro.serve.loadgen import main as loadgen_main
from repro.workloads.validation import main as validation_main


def run_cli(
    main: Callable[[List[str]], int], argv: List[str], capsys, within_s: float
) -> Tuple[object, str]:
    """Run ``main(argv)`` on a daemon thread; (exit code, stderr).

    The thread bounds the wait, so a CLI that hangs on a bad value fails
    the test instead of stalling the suite, and an uncaught exception
    shows up on stderr as a traceback.
    """
    outcome = {}

    def target() -> None:
        try:
            outcome["code"] = main(argv)
        except SystemExit as exc:
            outcome["code"] = exc.code

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=within_s)
    assert not worker.is_alive(), f"{argv} still running after {within_s}s"
    return outcome.get("code"), capsys.readouterr().err


def assert_usage_error(code: object, stderr: str, flag: str) -> None:
    assert code == 2, stderr
    assert f"argument {flag}:" in stderr, stderr
    assert "Traceback" not in stderr, stderr


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["--rate", "0"], "--rate"),
        (["--rate", "1.5"], "--rate"),
        (["--rate", "nan"], "--rate"),
        (["--max-blocks", "0"], "--max-blocks"),
        (["--rate", "0.5", "--max-blocks", "8"], "--max-blocks"),
        (["--n-refs", "-5"], "--n-refs"),
        (["--seed", "-1"], "--seed"),
        (["--line-size", "48"], "--line-size"),
        (["--sizes", "abc"], "--sizes"),
        (["--sizes", "0"], "--sizes"),
        (["--assoc", "3"], "--assoc"),
        (["gcc", "nosuch"], "workloads"),
    ],
)
def test_mrc_rejects_bad_flags(argv, flag, capsys):
    code, stderr = run_cli(mrc_main, ["--n-refs", "100", *argv], capsys, 10.0)
    assert_usage_error(code, stderr, flag)


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["--max-sessions", "0"], "--max-sessions"),
        (["--max-batch-refs", "0"], "--max-batch-refs"),
        (["--budget-bytes", "0"], "--budget-bytes"),
        (["--idle-timeout", "-1"], "--idle-timeout"),
        (["--idle-timeout", "nan"], "--idle-timeout"),
        (["--inject", "bogus"], "--inject"),
        (["--port", "70000"], "--port"),
        (["--max-runtime", "-1"], "--max-runtime"),
    ],
)
def test_serve_rejects_bad_flags(argv, flag, capsys):
    code, stderr = run_cli(serve_main, ["--port", "0", *argv], capsys, 10.0)
    assert_usage_error(code, stderr, flag)


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        # Semaphore(0) admits no session: unchecked, this waits forever.
        (["--concurrency", "0"], "--concurrency"),
        (["--sessions", "0"], "--sessions"),
        (["--refs-per-session", "-1"], "--refs-per-session"),
        (["--batch-size", "0"], "--batch-size"),
        (["--tenants", "0"], "--tenants"),
        (["--benches", "nosuch"], "--benches"),
        (["--port", "-1"], "--port"),
    ],
)
def test_loadgen_rejects_bad_flags(argv, flag, capsys, tmp_path):
    # No server listens on the socket: the flags must fail first.
    socket = str(tmp_path / "absent.sock")
    code, stderr = run_cli(loadgen_main, ["--socket", socket, *argv], capsys, 1.0)
    assert_usage_error(code, stderr, flag)


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        # Unchecked, this one ran every cell into ValueError and exited 0.
        (["--seed", "-1"], "--seed"),
        (["--refs", "0"], "--refs"),
        (["--refs", "x"], "--refs"),
        (["--warmup", "-1"], "--warmup"),
        (["--jobs", "0"], "--jobs"),
        (["--timeout", "-1"], "--timeout"),
        (["--timeout", "nan"], "--timeout"),
        (["--retries", "-1"], "--retries"),
        (["--backoff", "-2"], "--backoff"),
        (["--backoff", "nan"], "--backoff"),
        (["--breaker", "-1"], "--breaker"),
        (["--heartbeat-every", "-1"], "--heartbeat-every"),
        (["--inject", "bogus"], "--inject"),
        (["--inject-fault", "bogus"], "--inject-fault"),
    ],
)
def test_experiments_rejects_bad_flags(argv, flag, capsys, tmp_path):
    # Each value fails as it is parsed, before any run directory exists.
    run_dir = tmp_path / "run"
    argv = ["table1", "--quick", "--suite", "gcc", "--run-dir", str(run_dir), *argv]
    code, stderr = run_cli(experiments_main, argv, capsys, 10.0)
    assert_usage_error(code, stderr, flag)
    assert not run_dir.exists()


@pytest.mark.parametrize(
    ("variable", "value", "message"),
    [
        ("REPRO_INJECT", "bogus", "error: REPRO_INJECT: bad fault spec 'bogus'"),
        # Workers read it under --no-invariants: unchecked up front, every
        # cell would run its simulation and then fail.
        ("REPRO_CHECK_INVARIANTS", "enable", "error: REPRO_CHECK_INVARIANTS='enable'"),
    ],
)
def test_experiments_names_a_bad_environment_variable(
    variable, value, message, capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(invariants, "_enabled", None)
    monkeypatch.setenv(variable, value)
    run_dir = tmp_path / "run"
    argv = ["table1", "--quick", "--suite", "gcc", "--run-dir", str(run_dir), "--no-invariants"]
    code, stderr = run_cli(experiments_main, argv, capsys, 10.0)
    assert code == 2, stderr
    assert message in stderr, stderr
    assert "Traceback" not in stderr and not run_dir.exists()


@pytest.mark.parametrize("value", ["enable", "2"])
def test_invariants_flag_rejects_unknown_values(value, monkeypatch):
    # Unchecked, both read as "off" and silently skipped every check.
    monkeypatch.setattr(invariants, "_enabled", None)
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
    with pytest.raises(ValueError) as excinfo:
        invariants.check_enabled()
    message = str(excinfo.value)
    assert f"REPRO_CHECK_INVARIANTS={value!r}" in message
    assert "1/true/yes/on" in message and "0/false/no/off or empty" in message


@pytest.mark.parametrize(
    ("value", "enabled"),
    [(" On ", True), ("yes", True), ("", False), ("0", False), ("FALSE", False), ("off", False)],
)
def test_invariants_flag_accepts_on_and_off_spellings(value, enabled, monkeypatch):
    monkeypatch.setattr(invariants, "_enabled", None)
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
    assert invariants.check_enabled() is enabled


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--refs", "100", "--warmup", "100"], "warmup must be in [0, n_refs)"),
        (["--heartbeat-every", "5"], "--heartbeat-every needs --metrics"),
    ],
)
def test_experiments_keeps_cross_field_checks(argv, message, capsys, tmp_path):
    argv = ["table1", "--suite", "gcc", "--run-dir", str(tmp_path / "run"), *argv]
    code, stderr = run_cli(experiments_main, argv, capsys, 10.0)
    assert code == 2, stderr
    assert message in stderr, stderr
    assert "Traceback" not in stderr, stderr


@pytest.mark.parametrize("argv", [["nosuchbench"], ["gcc", "nosuchbench"]])
def test_validation_rejects_bad_names(argv, capsys):
    code, stderr = run_cli(validation_main, argv, capsys, 10.0)
    assert_usage_error(code, stderr, "benches")
    assert "nosuchbench" in stderr


def test_validation_help_exits_zero(capsys):
    code, stderr = run_cli(validation_main, ["--help"], capsys, 10.0)
    assert code == 0 and stderr == ""


@pytest.mark.parametrize(
    "content",
    [
        None,  # missing file
        "{",  # not JSON
        "[]",  # no single_node_service entry
        '{"single_node_service": {"sessions": 1000}}',  # limits missing
        '{"single_node_service": {"min_refs_per_sec": 1, "sessions": 1,'
        ' "max_answer_p99_ms": "fast"}}',
        '{"single_node_service": {"min_refs_per_sec": 1, "sessions": 0,'
        ' "max_answer_p99_ms": 1}}',
    ],
)
def test_bench_rejects_bad_baseline_before_timing(
    content, capsys, tmp_path, monkeypatch
):
    def timed(*args, **kwargs):
        raise AssertionError("the cell ran before --check-against was checked")

    monkeypatch.setattr(bench, "measure_service", timed)
    baseline = tmp_path / "baseline.json"
    if content is not None:
        baseline.write_text(content)
    argv = ["--out", str(tmp_path / "out.json"), "--check-against", str(baseline)]
    code, stderr = run_cli(bench.main, argv, capsys, 10.0)
    assert_usage_error(code, stderr, "--check-against")
    assert not (tmp_path / "out.json").exists()


# ----------------------------------------------------------------------
# Run-directory tools: undecodable bytes and misread arguments
# ----------------------------------------------------------------------
EVENT = (
    '{"pid": 1, "refs_done": 1, "refs_per_sec": 1.0, "schema": 1, '
    '"sim": "s", "ts": 0, "type": "heartbeat"}'
)
#: Byte offset of the \xff below: one event line, then two ASCII bytes.
BAD_OFFSET = len(EVENT) + 1 + 2


def events_with_bad_byte(path):
    path.write_bytes(
        EVENT.encode() + b'\n{"\xff": 1}\n' + EVENT.encode() + b"\n"
    )


def run_directory(path):
    run = RunDirectory(path)
    params = ExperimentParams(n_refs=4_000, warmup=1_000, suite=["gcc"])
    run.prepare(params, resume=False, cells=["a.main"])
    result = ExperimentResult(
        experiment_id="toy", title="toy", headers=["b", "v"], rows=[["gcc", 1]]
    )
    run.save_cell("a.main", result)
    run.save_report({"schema": 2, "cells": [], "summary": {}, "ok": True})
    return run


def snapshot(path):
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def test_validate_names_the_undecodable_byte(capsys, tmp_path):
    events = tmp_path / "events.jsonl"
    events_with_bad_byte(events)
    code, stderr = run_cli(validate_main, [str(events)], capsys, 10.0)
    assert code == 1, stderr
    assert f"{events}: byte offset {BAD_OFFSET} is not UTF-8" in stderr
    assert "validate: FAIL" in stderr
    assert "Traceback" not in stderr


def test_validate_calls_a_directory_a_directory(capsys, tmp_path):
    code, stderr = run_cli(validate_main, [str(tmp_path)], capsys, 10.0)
    assert code == 2, stderr
    assert "is a directory" in stderr and "no such file" not in stderr


def test_doctor_calls_a_file_not_a_directory(capsys, tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text(EVENT + "\n")
    code, stderr = run_cli(doctor_main, [str(events)], capsys, 10.0)
    assert code == 2, stderr
    assert "not a directory" in stderr and "no such" not in stderr


def test_doctor_drops_event_lines_that_are_not_utf8(capsys, tmp_path):
    run_directory(tmp_path)
    events = tmp_path / "events.jsonl"
    events_with_bad_byte(events)
    assert doctor_main([str(tmp_path), "--dry-run"]) == 1
    out = capsys.readouterr().out
    assert f"events.jsonl: byte offset {BAD_OFFSET} is not UTF-8" in out
    assert "doctor: REPAIRABLE" in out
    assert doctor_main([str(tmp_path)]) == 0
    assert "doctor: REPAIRED" in capsys.readouterr().out
    assert events.read_bytes() == (EVENT + "\n" + EVENT + "\n").encode()


def test_doctor_quarantines_an_undecodable_artifact(tmp_path):
    run = run_directory(tmp_path)
    artifact = run.cell_path("a.main")
    artifact.write_bytes(b"{\xfe" + artifact.read_bytes()[1:])
    diag = diagnose(tmp_path)
    assert "cells/a.main.json: byte offset 1 is not UTF-8" in diag.problems
    assert diag.cells_lost == ["a.main"]
    assert (run.quarantine_path / "a.main.json").exists()


@pytest.mark.parametrize(
    ("manifest", "problem"),
    [
        (b'{"schema": 2, "\xff": 0}', "manifest.json: byte offset 15 is not UTF-8"),
        # No params: RunDirectory.prepare could never match them.
        (b'{"schema": 2}', "lacks valid params"),
        (b'{"schema": 2, "params": {"n_refs": 0}}', "lacks valid params"),
    ],
    ids=["undecodable", "no-params", "invalid-params"],
)
def test_doctor_calls_an_unresumable_manifest_corrupt(
    manifest, problem, capsys, tmp_path
):
    run = run_directory(tmp_path)
    run.manifest_backup_path.unlink()
    run.report_path.unlink()
    run.manifest_path.write_bytes(manifest)
    (tmp_path / "report.json.tmp").write_text("{")
    before = snapshot(tmp_path)
    assert doctor_main([str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert problem in out
    assert "doctor: CORRUPT" in out
    assert snapshot(tmp_path) == before
