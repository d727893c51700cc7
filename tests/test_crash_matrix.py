"""The crash matrix: inject -> crash -> doctor -> resume -> converge.

This is the tentpole proof of the fault-injection subsystem: for every
(site, kind) combination, a run killed by a deterministic injected fault
must be repairable by ``python -m repro.harness.doctor`` and must, after
``--resume``, converge to the *byte-identical* artifacts (``report.json``,
``manifest.json``, every ``cells/*.json``) of a fault-free run — except
for the few survivable worker-spawn faults where the harness retries
through the fault and honestly records RETRIED, in which case the
results and checksums (but not the origin stubs) must match.

Injected runs execute as subprocesses: ``kill`` and ``partial`` faults at
supervisor sites take the whole process down with ``os._exit``.  The
doctor and the resume run execute in-process (no fault plan armed).

A representative slice of the matrix runs in tier-1; the remaining
combinations are the CI chaos job (``REPRO_CHAOS=1``).  A Hypothesis
property test at the bottom drives the same loop with *random* fault
plans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import main as runner_main
from repro.faults import FAULT_KINDS
from repro.faults.sites import SITES
from repro.harness.checkpoint import RunDirectory
from repro.harness.doctor import main as doctor_main
from repro.obs.validate import main as validate_main

REPO = Path(__file__).resolve().parent.parent

#: One campaign shape for the whole matrix: two cells (a single-config
#: experiment and a grid one), serial, strict, with the event stream on
#: so every injection site is actually reachable.
ARGS = [
    "table1", "fig3",
    "--refs", "4000", "--warmup", "1000", "--suite", "gcc",
    "--backoff", "0.01", "--jobs", "1", "--strict",
    "--metrics", "--heartbeat-every", "1000",
]

#: Seed per site, chosen so the fault fires *after* the durable state it
#: tears has something to recover from: manifest_update seed 1 (nth hit
#: 2) survives prepare()'s initial manifest write, event_append seed 1
#: survives the supervisor's run_start.
SITE_SEED = {"manifest_update": 1, "event_append": 1}

#: Survivable spawn faults: the supervisor retries straight through them,
#: so the run completes with an honest RETRIED status instead of
#: crashing — origin stubs then legitimately differ from the baseline.
RETRY_SURVIVABLE = {
    ("worker_spawn", "enospc"),
    ("worker_spawn", "exception"),
    ("worker_spawn", "partial"),
}

#: The service's sites fire only inside ``repro.serve``, never in a
#: campaign, so a kill there cannot take a campaign down.
#: ``tests/test_serve.py`` covers them: ``serve_batch`` kill, exception,
#: enospc, partial and delay, and ``serve_accept`` exception.
SERVICE_SITES = frozenset({"serve_accept", "serve_batch"})

FULL_MATRIX = [
    f"{site}:{kind}:{SITE_SEED.get(site, 0)}"
    for site in sorted(set(SITES) - SERVICE_SITES)
    for kind in FAULT_KINDS
]

#: Always-on slice: every site, both crash shapes (kill/partial) for the
#: durable-write sites, one survivable spawn fault.
REPRESENTATIVE = [
    "checkpoint_write:kill:0",
    "checkpoint_write:partial:0",
    "manifest_update:kill:1",
    "manifest_update:partial:1",
    "report_finalize:kill:0",
    "event_append:partial:1",
    "sim_tick:kill:0",
    "worker_spawn:enospc:0",
]

CHAOS_ONLY = [c for c in FULL_MATRIX if c not in REPRESENTATIVE]


@pytest.fixture(autouse=True)
def _no_env_plan(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT", raising=False)


def run_injected(
    run_dir: Path, plan: str, args: list = ARGS
) -> subprocess.CompletedProcess:
    """One campaign with the plan armed, in its own interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("REPRO_INJECT", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner",
         *args, "--run-dir", str(run_dir), "--inject", plan],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def artifact_bytes(run_dir: Path) -> Dict[str, bytes]:
    """Every durable artifact's exact bytes (events.jsonl excluded: it
    carries timestamps and pids and is checked by reconciliation)."""
    out = {
        "report.json": (run_dir / "report.json").read_bytes(),
        "manifest.json": (run_dir / "manifest.json").read_bytes(),
    }
    for path in sorted((run_dir / "cells").glob("*.json")):
        out[f"cells/{path.name}"] = path.read_bytes()
    return out


def assert_results_match(run_dir: Path, baseline_dir: Path) -> None:
    """Weak (semantic) convergence: same cells, same result payloads and
    checksums, every cell completed — origin stubs may differ."""
    base = json.loads((baseline_dir / "report.json").read_text())
    rep = json.loads((run_dir / "report.json").read_text())
    assert rep["ok"] is True
    cell_ids = {c["cell"] for c in base["cells"]}
    assert {c["cell"] for c in rep["cells"]} == cell_ids
    assert all(c["status"] in ("OK", "RETRIED") for c in rep["cells"])
    for cell_id in cell_ids:
        b = json.loads(RunDirectory(baseline_dir).cell_path(cell_id).read_text())
        r = json.loads(RunDirectory(run_dir).cell_path(cell_id).read_text())
        assert r["result"] == b["result"]
        assert r["checksum"] == b["checksum"]


def crash_doctor_resume(combo: str, run_dir: Path, baseline_dir: Path) -> None:
    """The full loop one matrix entry must survive."""
    site, kind = combo.split(":")[:2]
    proc = run_injected(run_dir, combo)
    if kind == "kill":
        assert proc.returncode != 0, (
            f"{combo}: injected kill did not take the run down\n{proc.stderr}"
        )
    if kind == "delay":
        assert proc.returncode == 0, f"{combo}: delay must not fail\n{proc.stderr}"

    assert doctor_main([str(run_dir)]) == 0, f"{combo}: doctor could not repair"
    rc = runner_main([*ARGS, "--run-dir", str(run_dir), "--resume"])
    assert rc == 0, f"{combo}: resume after repair failed"

    assert not list(run_dir.glob("*.tmp")) and not list(
        (run_dir / "cells").glob("*.tmp")
    )
    if (site, kind) in RETRY_SURVIVABLE:
        assert_results_match(run_dir, baseline_dir)
    else:
        assert artifact_bytes(run_dir) == artifact_bytes(baseline_dir), (
            f"{combo}: recovered artifacts differ from the fault-free run"
        )
    assert validate_main([str(run_dir / "events.jsonl"), "--reconcile"]) == 0, (
        f"{combo}: recovered event stream does not reconcile"
    )


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory) -> Path:
    """One fault-free run of the campaign; every matrix entry must
    converge to these bytes."""
    run_dir = tmp_path_factory.mktemp("baseline")
    os.environ.pop("REPRO_INJECT", None)
    rc = runner_main([*ARGS, "--run-dir", str(run_dir)])
    assert rc == 0
    return run_dir


@pytest.mark.parametrize("combo", REPRESENTATIVE)
def test_crash_matrix_representative(combo, tmp_path, baseline_dir, capsys):
    crash_doctor_resume(combo, tmp_path, baseline_dir)


#: Same campaign with a heartbeat cadence (700) that does NOT divide the
#: sim_tick fault cadence (1000): the two clocks interleave instead of
#: coinciding, which is exactly the shape the shared boundary walk in
#: ``repro.system.simulator.measure_boundaries`` must keep straight.
DUAL_CADENCE_ARGS = [
    "table1",
    "--refs", "4000", "--warmup", "1000", "--suite", "gcc",
    "--backoff", "0.01", "--jobs", "1", "--strict",
    "--metrics", "--heartbeat-every", "700",
]


def test_sim_tick_honours_offset_heartbeat_cadence(tmp_path, capsys):
    """Dual-cadence pin: heartbeats keep their own 700-ref clock while
    the armed sim_tick site fires on its independent 1000-ref clock —
    the measured loop must honour both, and the crash/doctor/resume
    loop must still converge byte-for-byte."""
    baseline = tmp_path / "baseline"
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    os.environ.pop("REPRO_INJECT", None)
    assert runner_main([*DUAL_CADENCE_ARGS, "--run-dir", str(baseline)]) == 0

    proc = run_injected(run_dir, "sim_tick:kill:0", args=DUAL_CADENCE_ARGS)
    assert proc.returncode != 0, f"sim_tick kill did not fire\n{proc.stderr}"
    # The dying sim got through its 700-ref heartbeat before the tick at
    # 1000 killed it: both cadences ran, in order, in one measured loop.
    crashed = [
        json.loads(line)
        for line in (run_dir / "events.jsonl").read_text().splitlines()
    ]
    beats = [e["refs_done"] for e in crashed if e.get("type") == "heartbeat"]
    # One beat per attempt (the harness retries through the kill): every
    # attempt got exactly to 700 and died at the 1000-ref tick.
    assert beats and set(beats) == {700}, beats

    assert doctor_main([str(run_dir)]) == 0
    assert (
        runner_main([*DUAL_CADENCE_ARGS, "--run-dir", str(run_dir), "--resume"])
        == 0
    )
    assert artifact_bytes(run_dir) == artifact_bytes(baseline)
    assert validate_main([str(run_dir / "events.jsonl"), "--reconcile"]) == 0
    # The fault-free stream shows the full 700-cadence heartbeat train
    # (3000 measured refs -> 700..2800) in every simulated cell.
    events = [
        json.loads(line)
        for line in (baseline / "events.jsonl").read_text().splitlines()
    ]
    trains = [e["refs_done"] for e in events if e.get("type") == "heartbeat"]
    assert trains and set(trains) == {700, 1400, 2100, 2800}


@pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="full chaos matrix runs in the CI chaos job (REPRO_CHAOS=1)",
)
@pytest.mark.parametrize("combo", CHAOS_ONLY)
def test_crash_matrix_full(combo, tmp_path, baseline_dir, capsys):
    crash_doctor_resume(combo, tmp_path, baseline_dir)


# ----------------------------------------------------------------------
# Property: ANY seeded plan is recoverable (satellite: hypothesis tests)
# ----------------------------------------------------------------------
def _spec_text(site: str, kind: str, seed: int, repeat: int) -> str:
    # manifest_update must survive prepare()'s first write or the fault
    # model degenerates to "the run never started" (nothing durable to
    # recover) — pin its seed to an nth-hit of 2.
    if site == "manifest_update":
        seed = 1 + 3 * (seed % 2)
    return f"{site}:{kind}:{seed}:{repeat}"


plan_strategy = st.lists(
    st.builds(
        _spec_text,
        site=st.sampled_from(sorted(SITES)),
        kind=st.sampled_from(FAULT_KINDS),
        seed=st.integers(min_value=0, max_value=4),
        repeat=st.integers(min_value=1, max_value=2),
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda spec: spec.split(":")[0],
).map(",".join)


@settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    # capsys only captures (never feeds) the runner's table output, so
    # not resetting it between examples is harmless.
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(plan=plan_strategy)
def test_random_fault_plan_recovers(plan, baseline_dir, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        run_dir.mkdir()
        run_injected(run_dir, plan)
        assert doctor_main([str(run_dir)]) == 0, f"{plan}: doctor failed"
        rc = runner_main([*ARGS, "--run-dir", str(run_dir), "--resume"])
        assert rc == 0, f"{plan}: resume failed"
        report = json.loads((run_dir / "report.json").read_text())
        if any(c["status"] == "RETRIED" for c in report["cells"]):
            assert_results_match(run_dir, baseline_dir)
        else:
            assert artifact_bytes(run_dir) == artifact_bytes(baseline_dir)
        assert validate_main([str(run_dir / "events.jsonl"), "--reconcile"]) == 0
