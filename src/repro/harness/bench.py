"""The ``single_node_service`` benchmark cell: 1000 concurrent sessions.

The repository benchmark (``perfbench/run.py``, CI's ``bench`` job) times
the simulator, the MRC engine, the accuracy loop and the service over
two client connections, and checks every output.  This cell measures
what it does not: a real :class:`repro.serve.server.ConflictServer` on
a unix socket, driven by the package's own load generator at
:data:`SESSIONS` concurrent sessions.  Server and generator share one
event loop, so the cell needs no ports and no subprocesses, and every
answer is timed while other sessions' batches keep the loop busy.

The artifact records aggregate refs/sec, p50/p99 answer latency under
that load and the peak number of simultaneously live server sessions.
``--check-against`` gates it on the committed limits in the baseline's
``single_node_service`` entry:

* ``min_refs_per_sec`` — aggregate throughput floor;
* ``sessions`` — the live-session peak must reach it;
* ``max_answer_p99_ms`` — p99 answer-latency ceiling.

Usage::

    python -m repro.harness.bench --out BENCH_service.json \\
        --check-against benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.harness.durable import atomic_write_text
from repro.serve.config import ServeConfig, raise_fd_limit
from repro.serve.loadgen import build_parser as loadgen_parser
from repro.serve.loadgen import run_load
from repro.serve.server import ConflictServer

#: Version of the artifact layout; bump on incompatible change.
BENCH_SCHEMA = 2

#: Concurrent sessions (the generator's concurrency equals the count).
SESSIONS = 1000

#: Addresses each session streams, in four batches.
REFS_PER_SESSION = 4000
BATCH_SIZE = REFS_PER_SESSION // 4

#: The baseline's ``single_node_service`` keys ``--check-against`` reads.
LIMIT_KEYS = ("min_refs_per_sec", "sessions", "max_answer_p99_ms")


def measure_service(
    sessions: int, refs_per_session: int, batch_size: int, scratch: Path
) -> Dict[str, object]:
    """One in-process service run with every session concurrent.

    A sampler task records the peak number of simultaneously live server
    sessions, so the artifact proves the concurrency level happened.
    """
    # Server and loadgen share the process: two descriptors per session.
    raise_fd_limit(2 * sessions + 64)
    socket_path = str(scratch / "bench-serve.sock")

    async def cell() -> Dict[str, object]:
        server = ConflictServer(
            ServeConfig(
                socket_path=socket_path,
                max_sessions=sessions + 8,
                idle_timeout_s=120.0,
            )
        )
        await server.start()
        peak = 0

        async def sample_peak() -> None:
            nonlocal peak
            while True:
                peak = max(peak, server.live_sessions())
                await asyncio.sleep(0.02)

        sampler = asyncio.ensure_future(sample_peak())
        args = loadgen_parser().parse_args(
            [
                "--socket", socket_path,
                "--sessions", str(sessions),
                "--concurrency", str(sessions),
                "--refs-per-session", str(refs_per_session),
                "--batch-size", str(batch_size),
            ]
        )
        report = await run_load(args)
        sampler.cancel()
        await server.stop()
        report["peak_sessions"] = peak
        report["state_entries_final"] = server.state_entries()
        return report

    return asyncio.run(cell())


def check_service(
    cell: Mapping[str, Any], limits: Mapping[str, float]
) -> List[str]:
    """Each committed limit ``cell`` breaks, as one line of text."""
    refs = float(cell["refs_per_sec"])
    peak = int(cell["peak_sessions"])
    p99 = float(cell["answer_p99_ms"])
    problems: List[str] = []
    if refs < limits["min_refs_per_sec"]:
        problems.append(
            f"throughput {refs:.0f} refs/sec < floor "
            f"{limits['min_refs_per_sec']:.0f}"
        )
    if peak < limits["sessions"]:
        problems.append(
            f"peaked at {peak} live session(s) < committed "
            f"{limits['sessions']:.0f}"
        )
    if p99 > limits["max_answer_p99_ms"]:
        problems.append(
            f"answer p99 {p99:.1f}ms > ceiling "
            f"{limits['max_answer_p99_ms']:.1f}ms"
        )
    return problems


def read_limits(path: str) -> Dict[str, float]:
    """``--check-against``: the committed limits, read as the flag parses."""
    try:
        entry = json.loads(Path(path).read_text())["single_node_service"]
        limits = {key: float(entry[key]) for key in LIMIT_KEYS}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"no single_node_service limits {list(LIMIT_KEYS)} in {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    bad = [k for k, value in limits.items() if not (0 < value < math.inf)]
    if bad:
        raise argparse.ArgumentTypeError(
            f"{path}: {bad} must be positive and finite"
        )
    return limits


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.bench",
        description=f"Run the single_node_service cell ({SESSIONS} concurrent "
        "in-process sessions) and write its JSON artifact.",
    )
    parser.add_argument(
        "--out",
        default="BENCH_service.json",
        metavar="FILE",
        help="where to write the artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--check-against",
        type=read_limits,
        default=None,
        metavar="BASELINE",
        help="fail unless the cell meets this file's single_node_service limits",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as scratch:
        cell = measure_service(
            SESSIONS, REFS_PER_SESSION, BATCH_SIZE, scratch=Path(scratch)
        )
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "single_node_service": cell,
    }
    out = Path(args.out)
    atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"[bench] service: {cell['sessions']} session(s) "
        f"(peak {cell['peak_sessions']} live), "
        f"{cell['refs_per_sec']} refs/sec aggregate, "
        f"answers p50={cell['answer_p50_ms']}ms p99={cell['answer_p99_ms']}ms"
    )
    print(f"[bench] artifact written to {out}")
    if cell["errors"]:
        print("[bench] ERROR: service sessions failed during the run", file=sys.stderr)
        return 1
    if args.check_against is not None:
        problems = check_service(cell, args.check_against)
        for problem in problems:
            print(f"[bench] FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("[bench] within the committed service limits")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
