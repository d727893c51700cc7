"""Bad command-line input exits 2 with a usage error naming the flag.

Each CLI checks its flags as they are parsed, with the same code the
library runs the values through (``ServeConfig``, ``parse_plan``, the
SHARDS estimator, the workload generator's name check), so a bad value
never surfaces as a traceback from inside the run or as a hang.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Tuple

import pytest

from repro.mrc.cli import main as mrc_main
from repro.serve.__main__ import main as serve_main
from repro.serve.loadgen import main as loadgen_main


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
