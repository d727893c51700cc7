"""Run ``repro.serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py [--spans PATH] [--slow NAME]
-- <repro.serve arguments>``.  The wrappers go in first, then the real
``repro.serve.__main__.main`` runs with the given arguments; the spans
are written to PATH once the server has stopped.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import SERVER_SPANS, SLOWABLE, Recorder, patched  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--spans", help="write server spans here on exit")
    parser.add_argument("--slow", choices=sorted(SLOWABLE))
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    recorder = Recorder(sessions=True) if args.spans else None
    with patched(SERVER_SPANS, recorder, args.slow):
        from repro.serve import __main__ as serve_main

        code = serve_main.main(serve_args)
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
