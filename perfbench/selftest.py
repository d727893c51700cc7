"""Layer-attribution self-test: the benchmark's own mutation test.

    python3 perfbench/selftest.py

For each public function in ``PREDICTIONS`` the benchmark runs with that
function slowed to 2x (``run.py --slow``: the wrapper spins as long
again as the call took, so outputs are unchanged) and checks three
things against unslowed runs of the same seed:

1. on the predicted workload, the predicted per-layer metric (one
   traced run each way) roughly doubles: it grows by a factor between
   1.6 and 2.6;
2. on the predicted workload, the predicted end-to-end metric worsens
   by more than its bound in ``BENCHMARK.json``;
3. every pairing of workload and end-to-end metric predicted "no
   change" stays within its bound: the other rate of the predicted
   workload, and every metric of another workload that runs the same
   layer.

Every run uses seed ``SEED`` and ``BENCHMARK.json``'s ``run_seconds``.
The shared host's speed drifts between runs, so end-to-end metrics
come from ``PAIRS`` unslowed/slowed pairs run back to back, and each
check uses the median over the pairs.  ``setup_s`` is left out: the
slowdown is installed after set-up.  The report goes to
``.bench_build/perfbench/selftest.json``; the exit code is 1 if any
check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SEED = 7
PAIRS = 2

#: function -> (workload, per-layer metric, end-to-end metric that must
#: worsen, end-to-end metrics of that workload that must not move, other
#: workloads that run the function's layer and must not move at all).
#: ``set_lru_flags`` also prices the L2 of paper_figures' baseline
#: column, and bufferless_sweep calls simulate() but never on the scalar
#: engine.  A workload that never reaches the function is not re-run.
PREDICTIONS: Dict[str, Tuple[str, str, str, Tuple[str, ...], Tuple[str, ...]]] = {
    "set_lru_flags": (
        "bufferless_sweep", "mrc.set_lru_flags_s", "refs_per_s",
        ("aux_refs_per_s",), ("paper_figures",),
    ),
    "simulate.scalar": (
        "paper_figures", "system.scalar_s", "refs_per_s",
        ("aux_refs_per_s",), ("bufferless_sweep",),
    ),
    "measure_accuracy": (
        "paper_figures", "core.accuracy_s", "aux_refs_per_s", ("refs_per_s",), (),
    ),
    "compute_mrc": (
        "bufferless_sweep", "mrc.compute_mrc_s", "aux_refs_per_s", ("refs_per_s",), (),
    ),
    "TenantPipeline.feed": (
        "service_stream", "serve.pipeline.feed_s", "refs_per_s", (), (),
    ),
}


def run(workload: str, seed: int, seconds: float, trace: int, slow: Optional[str]) -> Dict[str, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if slow is not None:
        cmd += ["--slow", slow]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before``."""
    return (after - before) / before if better == "lower" else (before - after) / before


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        bench = json.load(src)
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"] if m["name"] != "setup_s"}

    report: List[Dict[str, Any]] = []
    ok = True
    for slow, (workload, layer, moved, still, others) in PREDICTIONS.items():
        before = run(workload, SEED, seconds, 1, None)[layer]
        after = run(workload, SEED, seconds, 1, slow)[layer]
        checks = [{
            "check": f"{layer} on {workload} roughly doubles",
            "value": after / before,
            "pass": 1.6 <= after / before <= 2.6,
        }]
        for w in (workload, *others):
            worse: Dict[str, List[float]] = {name: [] for name in specs}
            for _ in range(PAIRS):
                base = run(w, SEED, seconds, 0, None)
                slowed = run(w, SEED, seconds, 0, slow)
                for name, spec in specs.items():
                    worse[name].append(worse_by(base[name], slowed[name], spec["better"]))
            for name, spec in specs.items():
                if w == workload and name not in (moved, *still):
                    continue
                value = statistics.median(worse[name])
                if w == workload and name == moved:
                    text, passed = "worse than", value > spec["bound"]
                else:
                    text, passed = "within", value <= spec["bound"]
                checks.append({
                    "check": f"{name} on {w} {text} its bound {spec['bound']}",
                    "value": value,
                    "runs": worse[name],
                    "pass": passed,
                })
        for c in checks:
            print(f"{slow:20s} {'ok  ' if c['pass'] else 'FAIL'} {c['check']}: {c['value']:+.3f}",
                  flush=True)
        ok = ok and all(c["pass"] for c in checks)
        report.append({"slowed": slow, "checks": checks})
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "selftest.json"), "w", encoding="utf-8") as out:
        json.dump({"seed": SEED, "seconds": seconds, "pairs": PAIRS,
                   "report": report}, out, indent=2)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
