"""Async load generator for the classification service.

Drives many concurrent sessions against a running server and reports
the numbers the bench harness commits to the baseline: aggregate
refs/sec and p50/p99 answer latency (time from sending a ``query``
frame to receiving its reply, measured while batches from *other*
sessions keep the server busy — i.e. latency under load, not in a quiet
lab).

Address streams come from :mod:`repro.workloads.spec_analogs`; a small
pool of traces is synthesised once up front and sessions cycle through
it with per-session address offsets, so a thousand sessions cost
thousands of *streams* server-side while the generator itself does no
per-session trace synthesis.

Usage::

    python -m repro.serve.loadgen --socket /tmp/repro.sock \\
        --sessions 64 --concurrency 32 --refs-per-session 4096
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.argtypes import at_least, checked
from repro.serve.config import ServeConfig
from repro.serve.protocol import FrameError, read_frame, write_frame
from repro.workloads.spec_analogs import build

#: Trace pool synthesised once and shared by all sessions.
DEFAULT_BENCHES = ("gcc", "tomcatv", "go", "swim")

#: Per-session address offset stride: shifts the whole stream into a
#: disjoint tag range so no two sessions present identical streams,
#: without changing the stream's set-conflict structure.
_OFFSET_STRIDE = 1 << 32


class LoadgenError(RuntimeError):
    """A session failed and ``--tolerate-errors`` was not given."""


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def build_trace_pool(
    benches: Sequence[str], refs_per_session: int, seed: int
) -> List[List[int]]:
    """Synthesise the shared address pool (one list per bench)."""
    pool: List[List[int]] = []
    for i, bench in enumerate(benches):
        trace = build(bench, refs_per_session, seed=seed + i)
        pool.append([int(a) for a in trace.addresses])
    return pool


async def _open_connection(
    socket_path: Optional[str], host: str, port: int
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    if socket_path is not None:
        return await asyncio.open_unix_connection(socket_path)
    return await asyncio.open_connection(host, port)


async def run_session(
    index: int,
    addrs: List[int],
    args: argparse.Namespace,
    answer_latencies: List[float],
    fault_errors: List[str],
) -> int:
    """One full session: open, feed batches, query, close.

    Returns the refs acknowledged.  Server-side session failures (an
    injected fault closes the session with an error frame, or drops the
    connection entirely) are recorded in ``fault_errors`` and tolerated
    only under ``--tolerate-errors``.
    """
    try:
        reader, writer = await _open_connection(args.socket, args.host, args.port)
    except (OSError, ConnectionError) as exc:
        # A killed server refuses everything after it dies; under
        # --tolerate-errors that is data, not an abort.
        if not args.tolerate_errors:
            raise
        fault_errors.append(f"session {index}: connect failed: {exc}")
        return 0
    refs_done = 0
    try:
        offset = index * _OFFSET_STRIDE
        await write_frame(
            writer,
            {
                "op": "open",
                "tenant": f"tenant-{index % args.tenants}",
                "cache_kb": args.cache_kb,
                "budget_bytes": args.budget_bytes,
                "seed": index,
            },
        )
        opened = await read_frame(reader)
        if opened is None or not opened.get("ok"):
            raise LoadgenError(
                f"session {index}: open refused: "
                f"{(opened or {}).get('error', 'connection closed')}"
            )
        for start in range(0, len(addrs), args.batch_size):
            chunk = [a + offset for a in addrs[start : start + args.batch_size]]
            await write_frame(writer, {"op": "batch", "addrs": chunk})
            ack = await read_frame(reader)
            if ack is None or not ack.get("ok"):
                raise LoadgenError(
                    f"session {index}: batch rejected: "
                    f"{(ack or {}).get('error', 'connection closed')}"
                )
            acked = ack["refs"]
            assert isinstance(acked, int)
            refs_done += acked
        for what in ("conflict_share", "mrc", "verdict"):
            sent = time.perf_counter()
            await write_frame(writer, {"op": "query", "what": what})
            answer = await read_frame(reader)
            if answer is None or not answer.get("ok"):
                raise LoadgenError(
                    f"session {index}: query {what} failed: "
                    f"{(answer or {}).get('error', 'connection closed')}"
                )
            answer_latencies.append(time.perf_counter() - sent)
        await write_frame(writer, {"op": "close"})
        closed = await read_frame(reader)
        if closed is None or not closed.get("ok"):
            raise LoadgenError(f"session {index}: close failed: {closed!r}")
    except (LoadgenError, FrameError, OSError, ConnectionError) as exc:
        if not args.tolerate_errors:
            raise
        fault_errors.append(f"session {index}: {exc}")
    finally:
        writer.close()
    return refs_done


async def run_load(args: argparse.Namespace) -> Dict[str, object]:
    """Drive the configured load; returns the metrics report."""
    pool = build_trace_pool(args.benches, args.refs_per_session, args.seed)
    answer_latencies: List[float] = []
    fault_errors: List[str] = []
    gate = asyncio.Semaphore(args.concurrency)
    refs_done = 0
    wall_start = time.perf_counter()

    async def gated(index: int) -> int:
        async with gate:
            return await run_session(
                index, pool[index % len(pool)], args, answer_latencies, fault_errors
            )

    totals = await asyncio.gather(*(gated(i) for i in range(args.sessions)))
    wall = time.perf_counter() - wall_start
    refs_done = sum(totals)
    latencies = sorted(answer_latencies)
    report: Dict[str, object] = {
        "sessions": args.sessions,
        "concurrency": args.concurrency,
        "refs_done": refs_done,
        "wall_s": round(wall, 6),
        "refs_per_sec": round(refs_done / wall, 1) if wall > 0 else 0.0,
        "answers": len(latencies),
        "answer_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "answer_p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "errors": len(fault_errors),
        "error_samples": fault_errors[:5],
    }
    if args.shutdown:
        try:
            reader, writer = await _open_connection(args.socket, args.host, args.port)
            await write_frame(writer, {"op": "shutdown"})
            await read_frame(reader)
            writer.close()
        except (OSError, ConnectionError, FrameError) as exc:
            # An injected kill may have taken the server down already —
            # under --tolerate-errors "nothing left to shut down" is
            # the expected end state, not a failure.
            if not args.tolerate_errors:
                raise
            fault_errors.append(f"shutdown: {exc}")
            report["errors"] = len(fault_errors)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive concurrent sessions against a running "
        "classification service and report throughput/latency.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--socket", help="unix socket path of the server")
    target.add_argument(
        "--port",
        type=checked(int, lambda port: ServeConfig(port=port)),
        help="TCP port of the server",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP host")
    parser.add_argument(
        "--sessions", type=at_least(1), default=32, help="total sessions to run"
    )
    parser.add_argument(
        "--concurrency",
        type=at_least(1),
        default=32,
        help="sessions in flight at once (semaphore)",
    )
    parser.add_argument(
        "--refs-per-session",
        type=at_least(1),
        default=4096,
        help="addresses per session",
    )
    parser.add_argument(
        "--batch-size", type=at_least(1), default=2048, help="addresses per batch frame"
    )
    parser.add_argument(
        "--cache-kb", type=int, default=16, help="cache size each session asks about"
    )
    parser.add_argument(
        "--budget-bytes",
        type=int,
        default=1 << 20,
        help="per-tenant state budget sent in the open frame",
    )
    parser.add_argument(
        "--tenants", type=at_least(1), default=8, help="distinct tenant names to cycle"
    )
    parser.add_argument(
        "--benches",
        nargs="+",
        # An empty trace runs the generator's name check for nothing.
        type=checked(str, lambda name: build(name, 0)),
        default=list(DEFAULT_BENCHES),
        help="workload analogs for the trace pool",
    )
    parser.add_argument("--seed", type=int, default=0, help="trace synthesis seed")
    parser.add_argument(
        "--tolerate-errors",
        action="store_true",
        help="count per-session failures instead of aborting (use when "
        "the server runs with an --inject fault plan)",
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown frame to the server after the run",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.port is None and args.socket is None:
        raise SystemExit("one of --socket or --port is required")
    try:
        report = asyncio.run(run_load(args))
    except (LoadgenError, FrameError, ConnectionError, OSError) as exc:
        print(f"loadgen: FAIL: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            "loadgen: {sessions} session(s), {refs_done} refs in {wall_s}s "
            "({refs_per_sec} refs/s); answers p50={answer_p50_ms}ms "
            "p99={answer_p99_ms}ms; errors={errors}".format(**report)
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
