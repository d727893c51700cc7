"""CLI runner: regenerate any paper table/figure, fault-tolerantly.

Usage (installed as ``repro-experiments``)::

    repro-experiments all
    repro-experiments fig1 fig6
    repro-experiments fig4 --refs 200000 --warmup 60000
    repro-experiments table1 --quick
    repro-experiments all --run-dir out/ --timeout 600 --strict
    repro-experiments all --run-dir out/ --resume      # skip finished cells
    repro-experiments --resume out/ all                # same thing
    repro-experiments all --jobs 4                     # 4 cells at a time
    repro-experiments all --run-dir out/ --metrics --trace --heartbeat-every 5000
    repro-experiments all --run-dir out/ --inject checkpoint_write:kill:2
    python -m repro.harness.doctor out/               # then: ... --resume

Every experiment is routed through :mod:`repro.harness`: each
(experiment, variant) *cell* runs in its own worker process with an
optional timeout, failures are retried with exponential backoff, and —
when ``--run-dir`` is given — each completed cell's table is persisted as
a schema-versioned JSON artifact so an interrupted campaign can be
resumed without recomputing anything.  ``--jobs N`` (default: CPU count)
supervises up to N cells concurrently without weakening any of those
guarantees.  A structured per-cell report is printed at the end (and
saved as ``report.json``); ``--strict`` turns any degraded cell into a
non-zero exit for CI.

Each experiment prints an ASCII table matching the corresponding table or
figure of the paper; see EXPERIMENTS.md for the committed results and the
paper-vs-measured comparison.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional

from repro import faults
from repro.argtypes import at_least, checked
from repro.experiments.base import ExperimentParams, ExperimentResult, format_result
from repro.harness import invariants
from repro.harness.cells import (
    SHARDED_EXPERIMENTS,
    VARIANTS,
    CellSpec,
    FaultInjection,
    expand_cells,
    known_experiments,
)
from repro.harness.checkpoint import CheckpointError, RunDirectory
from repro.harness.executor import HarnessConfig, run_cells
from repro.harness.report import CellReport, CellStatus
from repro.obs.config import ObsConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate tables/figures from Collins & Tullsen, MICRO 1999.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(known_experiments())}) or 'all'",
    )
    parser.add_argument(
        "--refs",
        type=checked(int, lambda n: ExperimentParams(n_refs=n, warmup=0)),
        default=None,
        help="trace length",
    )
    parser.add_argument(
        "--warmup",
        type=at_least(0),
        default=None,
        help="warmup refs",
    )
    parser.add_argument(
        "--seed",
        type=checked(int, lambda n: ExperimentParams(seed=n)),
        default=0,
        help="workload seed",
    )
    parser.add_argument(
        "--suite",
        default=None,
        metavar="BENCH[,BENCH...]",
        help="restrict every experiment to these benchmarks",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small traces for a fast pass"
    )
    parser.add_argument(
        "--chart",
        metavar="COLUMN",
        default=None,
        help="also draw an ASCII bar chart of one result column",
    )
    harness = parser.add_argument_group("harness (fault tolerance)")
    harness.add_argument(
        "--jobs",
        type=checked(int, lambda n: HarnessConfig(jobs=n)),
        default=None,
        metavar="N",
        help="supervise up to N cells concurrently "
        "(default: CPU count; forced to 1 by --no-isolate)",
    )
    harness.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="persist per-cell JSON artifacts and report.json here",
    )
    harness.add_argument(
        "--resume",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="skip cells already checkpointed in DIR (defaults to --run-dir)",
    )
    harness.add_argument(
        "--timeout",
        type=checked(float, lambda s: HarnessConfig(timeout_s=s)),
        default=None,
        metavar="SECONDS",
        help="kill any cell attempt that runs longer than this",
    )
    harness.add_argument(
        "--retries",
        type=checked(int, lambda n: HarnessConfig(retries=n)),
        default=1,
        help="extra attempts per failed/timed-out cell (default 1)",
    )
    harness.add_argument(
        "--backoff",
        type=checked(float, lambda s: HarnessConfig(backoff_s=s)),
        default=0.5,
        metavar="SECONDS",
        help="base retry backoff; doubles per attempt, with jitter",
    )
    harness.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any cell ends FAILED or TIMEOUT",
    )
    harness.add_argument(
        "--no-isolate",
        action="store_true",
        help="run cells in-process (no crash/hang protection; debugging)",
    )
    harness.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip statistics conservation-law checks after each simulation",
    )
    harness.add_argument(
        "--inject-fault",
        type=checked(str, FaultInjection.parse),
        default=None,
        help=argparse.SUPPRESS,  # <cell_id>:<fail|hang|flaky[:N]> (testing)
    )
    harness.add_argument(
        "--breaker",
        type=checked(int, lambda n: HarnessConfig(breaker_threshold=n)),
        default=5,
        metavar="K",
        help="abort cleanly after K consecutive infrastructure failures "
        "(spawn/worker-loss/checkpoint-IO; 0 disables; default 5)",
    )
    faults_group = parser.add_argument_group(
        "fault injection (crash-consistency testing; off by default)"
    )
    faults_group.add_argument(
        "--inject",
        type=checked(str, faults.parse_plan),
        default=None,
        metavar="SITE:KIND[:SEED[:REPEAT]][,...]",
        help="arm deterministic fault(s) at named injection sites "
        f"(sites: {', '.join(sorted(faults.SITES))}; kinds: "
        f"{', '.join(faults.FAULT_KINDS)}); the REPRO_INJECT environment "
        "variable is read when this flag is absent",
    )
    obs = parser.add_argument_group("observability (off by default)")
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="write schema-versioned metrics events to RUN_DIR/events.jsonl "
        "(requires --run-dir)",
    )
    obs.add_argument(
        "--trace",
        action="store_true",
        help="record tracing spans per cell attempt/retry/checkpoint into "
        "report.json (and events.jsonl when --metrics is also on)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each cell attempt into RUN_DIR/profiles/*.prof "
        "(requires --run-dir)",
    )
    obs.add_argument(
        "--heartbeat-every",
        type=checked(int, lambda n: ObsConfig(heartbeat_every=n)),
        default=0,
        metavar="N",
        help="emit a simulation heartbeat event every N measured references "
        "(requires --metrics; 0 disables heartbeats)",
    )
    return parser


def _validate_names(
    parser: argparse.ArgumentParser, requested: List[str]
) -> List[str]:
    """Expand 'all' and reject unknown names before anything runs."""
    if "all" in requested:
        # Sharded sweep families re-cut an aggregated experiment; 'all'
        # runs the aggregated form only (both would compute the grid twice).
        return [n for n in known_experiments() if n not in SHARDED_EXPERIMENTS]
    unknown = [name for name in requested if name not in VARIANTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(repr(n) for n in unknown)}; "
            f"valid names: {', '.join(known_experiments())} (or 'all')"
        )
    return list(requested)


def _validate_params(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ExperimentParams:
    """Build the full ExperimentParams up front so a bad --refs/--warmup
    combination fails immediately, not halfway through a campaign."""
    base = ExperimentParams.quick() if args.quick else ExperimentParams()
    suite: Optional[List[str]] = None
    if args.suite is not None:
        from repro.workloads.spec_analogs import SUITE

        suite = [s.strip() for s in args.suite.split(",") if s.strip()]
        bad = [s for s in suite if s not in SUITE]
        if bad or not suite:
            parser.error(
                f"unknown benchmark(s) {', '.join(repr(b) for b in bad) or '(none)'}"
                f"; valid: {', '.join(sorted(SUITE))}"
            )
    try:
        return ExperimentParams(
            n_refs=args.refs if args.refs is not None else base.n_refs,
            warmup=args.warmup if args.warmup is not None else base.warmup,
            seed=args.seed,
            suite=suite,
        )
    except ValueError as exc:
        parser.error(f"invalid parameters: {exc}")
        raise AssertionError("unreachable")  # pragma: no cover


def _make_cell_printer(chart: Optional[str]) -> Callable:
    def on_cell(
        spec: CellSpec, cell: CellReport, result: Optional[ExperimentResult]
    ) -> None:
        if result is not None:
            print(format_result(result))
            if chart:
                from repro.experiments.charts import bar_chart

                try:
                    print()
                    print(bar_chart(result, chart))
                except ValueError as exc:
                    print(f"(no chart: {exc})", file=sys.stderr)
            print()
        suffix = ""
        if cell.status is CellStatus.SKIPPED:
            suffix = " (cached)"
        elif cell.status is CellStatus.RETRIED:
            suffix = f" (after {cell.attempts} attempts)"
        print(
            f"[{spec.cell_id}: {cell.status.value.lower()}"
            f" {cell.duration_s:.1f}s{suffix}]",
            file=sys.stderr,
        )
        if cell.error:
            tail = cell.error.strip().splitlines()[-1]
            print(f"[{spec.cell_id}: {tail}]", file=sys.stderr)

    return on_cell


def main(argv: List[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    names = _validate_names(parser, args.experiments)
    params = _validate_params(parser, args)
    cells = expand_cells(names)

    inject = FaultInjection.parse(args.inject_fault) if args.inject_fault else None

    # Arm the seeded fault plan before anything durable happens, so the
    # manifest write in prepare() is already inside the fault model.
    if args.inject:
        faults.activate(faults.parse_plan(args.inject))
    elif os.environ.get("REPRO_INJECT"):
        try:
            faults.activate(faults.parse_plan(os.environ["REPRO_INJECT"]))
        except ValueError as exc:
            parser.error(f"REPRO_INJECT: {exc}")
    # A bad REPRO_CHECK_INVARIANTS fails here once, not in every cell.
    try:
        invariants.check_enabled()
    except ValueError as exc:
        parser.error(str(exc))

    resume = args.resume is not None
    run_dir_path = args.resume if isinstance(args.resume, str) else args.run_dir
    if resume and run_dir_path is None:
        parser.error("--resume needs a run directory (pass --run-dir or --resume DIR)")

    run_dir: Optional[RunDirectory] = None
    if run_dir_path is not None:
        run_dir = RunDirectory(run_dir_path)
        try:
            run_dir.prepare(
                params, resume=resume, cells=[c.cell_id for c in cells]
            )
        except CheckpointError as exc:
            parser.error(str(exc))

    if args.metrics and run_dir is None:
        parser.error("--metrics needs --run-dir (events.jsonl lives there)")
    if args.profile and run_dir is None:
        parser.error("--profile needs --run-dir (profiles/ lives there)")
    if args.heartbeat_every and not args.metrics:
        parser.error("--heartbeat-every needs --metrics (heartbeats are events)")

    obs_config = None
    if args.metrics or args.trace or args.profile:
        events_path = None
        if args.metrics:
            events_path = str(run_dir.path / "events.jsonl")
            if not resume:
                # A fresh (non-resume) run starts a fresh event stream;
                # a resumed run appends so the log covers the whole campaign.
                try:
                    os.unlink(events_path)
                except FileNotFoundError:
                    pass
        obs_config = ObsConfig(
            events_path=events_path,
            trace=args.trace,
            profile_dir=str(run_dir.path / "profiles") if args.profile else None,
            heartbeat_every=args.heartbeat_every,
        )

    jobs = args.jobs
    if jobs is None:
        # Parallel dispatch needs isolated workers, so --no-isolate runs
        # stay serial unless the user explicitly (and fatally) asks.
        jobs = 1 if args.no_isolate else (os.cpu_count() or 1)
    try:
        config = HarnessConfig(
            timeout_s=args.timeout,
            retries=args.retries,
            backoff_s=args.backoff,
            isolate=not args.no_isolate,
            check_invariants=not args.no_invariants,
            jobs=jobs,
            breaker_threshold=args.breaker,
        )
    except ValueError as exc:
        parser.error(f"invalid harness options: {exc}")

    report = run_cells(
        cells,
        params,
        config,
        run_dir=run_dir,
        resume=resume,
        inject=inject,
        on_cell=_make_cell_printer(args.chart),
        obs_config=obs_config,
    )

    print(report.format_table())
    if run_dir is not None:
        print(f"[report saved to {run_dir.report_path}]", file=sys.stderr)
        if obs_config is not None and obs_config.metrics:
            print(f"[metrics events in {obs_config.events_path}]", file=sys.stderr)
    return report.exit_code(args.strict)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
