"""``python -m repro.serve`` — run the classification service.

Examples::

    python -m repro.serve --socket /tmp/repro.sock --metrics events.jsonl
    python -m repro.serve --port 9931 --max-sessions 2048 \\
        --inject serve_batch:exception:3

The process serves until a client sends a ``shutdown`` frame, the
optional ``--max-runtime`` elapses, or it is interrupted.  A bad flag
value exits 2 naming the flag: each is checked as it is parsed, by
:class:`ServeConfig` or :func:`repro.faults.parse_plan` where they
define the bound.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro import faults
from repro.argtypes import at_least, checked
from repro.obs import events
from repro.obs.config import ObsConfig
from repro.serve.config import ServeConfig, raise_fd_limit
from repro.serve.server import ConflictServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Streaming multi-tenant conflict-classification service.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--socket", help="listen on a unix socket at this path")
    target.add_argument(
        "--port",
        type=checked(int, lambda port: ServeConfig(port=port)),
        help="listen on TCP at this port (0 = ephemeral)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    parser.add_argument(
        "--max-sessions",
        type=checked(int, lambda n: ServeConfig(max_sessions=n)),
        default=1024,
        help="admission cap",
    )
    parser.add_argument(
        "--budget-bytes",
        type=checked(int, lambda n: ServeConfig(default_budget_bytes=n)),
        default=1 << 21,
        help="default per-tenant state budget (open frames may override)",
    )
    parser.add_argument(
        "--max-batch-refs",
        type=checked(int, lambda n: ServeConfig(max_batch_refs=n)),
        default=65536,
        help="largest address batch one frame may carry",
    )
    parser.add_argument(
        "--idle-timeout",
        type=checked(float, lambda s: ServeConfig(idle_timeout_s=s)),
        default=60.0,
        help="reap sessions idle this many seconds (0 disables)",
    )
    parser.add_argument(
        "--metrics",
        metavar="EVENTS_JSONL",
        help="emit obs events (session_open/batch/answer/session_close) here",
    )
    parser.add_argument(
        "--inject",
        type=checked(str, faults.parse_plan),
        metavar="SITE:KIND[:SEED[:REPEAT]]",
        help="arm a fault plan (sites serve_accept, serve_batch, "
        "event_append, ...) — testing only",
    )
    parser.add_argument(
        "--max-runtime",
        type=at_least(0, float),
        default=0.0,
        help="exit after this many seconds (0 = run until shutdown frame)",
    )
    return parser


async def _run(args: argparse.Namespace) -> int:
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port or 0,
        max_sessions=args.max_sessions,
        default_budget_bytes=args.budget_bytes,
        max_batch_refs=args.max_batch_refs,
        idle_timeout_s=args.idle_timeout,
    )
    server = ConflictServer(config)
    await server.start()
    where = args.socket if args.socket else f"{args.host}:{server.port}"
    print(f"serve: listening on {where}", flush=True)
    try:
        if args.max_runtime > 0:
            try:
                await asyncio.wait_for(
                    server.serve_until_stopped(), timeout=args.max_runtime
                )
            except asyncio.TimeoutError:
                await server.stop()
        else:
            await server.serve_until_stopped()
    finally:
        print(
            f"serve: stopped after {server.sessions_closed} session(s), "
            f"{server.refs_total} refs",
            flush=True,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.inject:
        faults.activate(faults.parse_plan(args.inject))
    if args.metrics:
        events.activate(ObsConfig(events_path=args.metrics))
    raise_fd_limit(args.max_sessions + 64)
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    finally:
        events.deactivate()
        faults.deactivate()


if __name__ == "__main__":
    raise SystemExit(main())
