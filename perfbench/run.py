"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its inputs from the
seed, sets up (``setup_s`` is the median of this process's set-up and
four more in fresh processes), measures for about ``--seconds``, checks
every output against a reference and prints each metric by name with
its unit.  Timings are scaled to the reference host's speed by a speed
kernel (see ``library.py``); the unscaled figures are printed beside
them.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Any failed check makes the exit code 1.  Spans and
the workload descriptor are written to ``.bench_build/perfbench/``.

``--slow FUNC`` (used by ``selftest.py``) makes one public function
cost twice as much, with unchanged outputs.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("bufferless_sweep", "paper_figures", "service_stream")
SETUP_CHILDREN = 4

#: End-to-end metrics and their units (BENCHMARK.json's end_to_end).
END_TO_END = {
    "setup_s": "s",
    "refs_per_s": "refs/s",
    "aux_refs_per_s": "refs/s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of a traced run and their units (per_layer).
PER_LAYER = {
    "workloads.build_calls": "count",
    "workloads.build_s": "s",
    "system.simulate_calls": "count",
    "system.simulate_s": "s",
    "system.vector_calls": "count",
    "system.vector_s": "s",
    "system.vector_self_s": "s",
    "system.scalar_calls": "count",
    "system.scalar_s": "s",
    "system.vector_call_frac": "ratio",
    "system.l1_miss_frac": "ratio",
    "mrc.stack_distances_calls": "count",
    "mrc.stack_distances_s": "s",
    "mrc.set_lru_flags_calls": "count",
    "mrc.set_lru_flags_s": "s",
    "mrc.compute_mrc_s": "s",
    "mrc.shards_feed_calls": "count",
    "mrc.shards_feed_s": "s",
    "mrc.shards_result_s": "s",
    "mrc.shards_sampled_frac": "ratio",
    "core.accuracy_calls": "count",
    "core.accuracy_s": "s",
    "serve.frames": "count",
    "serve.protocol.decode_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.pipeline.feed_calls": "count",
    "serve.pipeline.feed_s": "s",
    "serve.pipeline.mct_s": "s",
    "serve.pipeline.query_s": "s",
    "serve.server.cpu_s": "s",
    "serve.server.self_s": "s",
    "serve.server.busy_frac": "ratio",
    "serve.batch_wait_ms": "ms",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p90_ms": "ms",
    "serve.batch_p99_ms": "ms",
    "serve.refused": "count",
    "serve.error_frames": "count",
    "serve.answer_p50_ms": "ms",
    "serve.answer_p90_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow", help="slow one public function to 2x (self-test)")
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up and exit"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def setup_child(args: argparse.Namespace) -> float:
    """One set-up in a fresh interpreter; returns its time in host seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if "REPRO_SIM_ENGINE" in os.environ:
        print(
            "perfbench: REPRO_SIM_ENGINE is set; a forced engine would time the "
            "wrong code path, so the benchmark refuses to run",
            file=sys.stderr,
        )
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import tracing

    if args.slow is not None and args.slow not in tracing.SLOWABLE:
        print(f"perfbench: --slow must be one of {sorted(tracing.SLOWABLE)}", file=sys.stderr)
        return 2
    service = args.workload == "service_stream"
    if service:
        import service as workload
    else:
        import library as workload

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.slow is not None:
        stem += f"-slow-{args.slow}"
    spans_path = os.path.join(OUT_DIR, f"{stem}.server-spans.jsonl")
    recorder = tracing.Recorder() if args.trace else None
    server_spans = spans_path if (service and args.trace) else None

    if service:
        state = workload.setup(args.seed, recorder, server_spans, args.slow)
    else:
        state = workload.setup(args.workload, args.seed, recorder)
    setups = [time.perf_counter() - T0]
    if args.setup_only:
        if service:
            workload.teardown(state)
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    if service:
        result = workload.measure(state, args.seconds, bool(args.trace), args.slow, server_spans)
    else:
        result = workload.measure(args.workload, state, args.seconds, bool(args.trace), args.slow)
    if not args.trace:
        setups += [setup_child(args) for _ in range(SETUP_CHILDREN)]
    # Set-up is scaled by the slowness the timed section measured: a
    # kernel reading taken beside a set-up lasts ~50 ms, too short to
    # tell the host's speed state from a passing burst.
    raw_setup = statistics.median(setups)
    result["e2e"]["setup_s"] = raw_setup / result["slowness"]
    result["named"]["setup_s"] = (
        result["e2e"]["setup_s"],
        f"s (median of {len(setups)}, at reference speed; {raw_setup:.6g} in host s)",
    )

    for name, (value, unit) in result["named"].items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        metrics = {
            name: {"value": float(result["layer"].get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        spans = state.get("spans", [])
        with open(os.path.join(OUT_DIR, f"{stem}.spans.jsonl"), "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")
    else:
        metrics = {
            name: {"value": float(result["e2e"][name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    descriptor: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slow": args.slow,
        **result["descriptor"],
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "named": {k: v[0] for k, v in result["named"].items()},
    }
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as out:
        json.dump(descriptor, out, indent=2, default=str)
    failed = int(result["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
