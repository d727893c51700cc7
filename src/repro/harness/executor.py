"""Supervised cell execution: isolation, timeouts, retries, checkpoints.

Each cell runs in its own ``multiprocessing`` worker (fork where the
platform supports it, spawn otherwise).  The supervisor waits on a pipe
rather than the process so a worker can never deadlock against a full
pipe buffer; a cell that produces nothing within the timeout is killed
and recorded as TIMEOUT instead of stalling the whole campaign.

Failures and timeouts are retried up to ``retries`` times with
exponential backoff (factor :data:`BACKOFF_FACTOR`).  Backoff jitter, up
to :data:`JITTER` of the delay, is drawn from a generator seeded by (run
seed, cell id, attempt), so a re-run of the same campaign sleeps the
same amounts — the harness introduces no nondeterminism of its own.

Results cross the process boundary as the same schema-versioned dicts the
checkpoint layer persists, so what ``--resume`` reloads is byte-for-byte
what a live worker would have produced.

With ``jobs > 1`` the scheduler dispatches up to that many cells
concurrently: each supervisor thread drives one isolated worker process
through the exact same attempt/timeout/retry/checkpoint state machine as
a serial run.  Artifact bytes are per-cell deterministic and the final
report lists cells in spec order regardless of completion order, so the
only observable difference between ``jobs=1`` and ``jobs=N`` is
wall-clock time (and the interleaving of progress callbacks).

Failures are classified: a cell that *ran and failed* (its code raised,
or it timed out) is the cell's problem and is retried per config; a
failure of the machinery *around* the cell — worker spawn error, worker
death without a result, checkpoint write error — is infrastructure.  A
run of :attr:`HarnessConfig.breaker_threshold` consecutive
infrastructure failures trips a circuit breaker: in-flight cells finish,
every cell not yet started is reported SKIPPED with an explanatory
error, and the run ends cleanly (degraded, so ``--strict`` exits 1)
instead of grinding through a campaign on a broken machine.

When a :mod:`repro.faults` plan is armed in the supervisor it crosses
into every worker (like :class:`~repro.obs.config.ObsConfig` does), and
the supervisor itself fires the ``worker_spawn`` site before each
process start — the zero-cost hook pattern means none of this is
reachable when no plan is armed.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable, List, Optional, Tuple, Union

from repro import faults
from repro.experiments.base import ExperimentParams, ExperimentResult
from repro.faults import FaultPlan, InjectedCrash
from repro.harness.cells import CellSpec, FaultInjection, maybe_inject, run_cell
from repro.harness.checkpoint import CheckpointError, RunDirectory
from repro.harness.report import CellReport, CellStatus, RunReport
from repro.obs import events as obs_events
from repro.obs.config import ObsConfig
from repro.obs.events import EventLog
from repro.obs.profiler import maybe_profile
from repro.obs.spans import NULL_TRACER, NullTracer, Tracer

#: Called after every cell with its report and result (None when degraded).
CellCallback = Callable[[CellSpec, CellReport, Optional[ExperimentResult]], None]


@dataclass(frozen=True)
class HarnessConfig:
    """Supervision knobs for one harness run.

    ``timeout_s`` bounds each *attempt*, not the whole cell; ``retries``
    is the number of extra attempts after the first; ``backoff_s`` is the
    delay before the first retry.  ``jobs`` is the number of cells
    supervised concurrently, each in its own worker process.

    ``breaker_threshold`` is how many *consecutive* infrastructure
    failures (spawn errors, workers dying without a result, checkpoint
    write errors — not cell bugs or timeouts) open the circuit breaker;
    0 disables it.
    """

    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.5
    jobs: int = 1
    breaker_threshold: int = 5

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not self.backoff_s >= 0:
            raise ValueError("backoff must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 disables)")


#: Each retry waits this many times longer than the one before.
BACKOFF_FACTOR = 2.0
#: A retry's delay grows by up to this fraction, seeded per attempt.
JITTER = 0.25


def backoff_delay(
    config: HarnessConfig, cell_id: str, attempt: int, seed: int
) -> float:
    """Deterministic exponential backoff with jitter, in seconds."""
    base = config.backoff_s * BACKOFF_FACTOR ** (attempt - 1)
    rng = random.Random(f"{seed}:{cell_id}:{attempt}")
    return base * (1.0 + JITTER * rng.random())


def _start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


#: Serialises worker start and reap across scheduler threads.  CPython's
#: ``Process.start()`` reaps *every* finished child of the process
#: (``util._cleanup`` polls them all), so with ``jobs > 1`` another
#: thread's start() can win the ``os.waitpid`` race against this thread's
#: join()/close(); the loser's poll sees ECHILD, reports the child as
#: "still running", and close() raises.  Holding one lock around both
#: sections makes every waitpid on a given pid exclusive.
_proc_lifecycle_lock = threading.Lock()


# ----------------------------------------------------------------------
# One attempt
# ----------------------------------------------------------------------
#: Attempt outcome kinds.  ``_INFRA`` marks failures of the machinery
#: around the cell (spawn, worker death without a result, checkpoint
#: IO) as opposed to the cell's own code — only these feed the breaker.
_OK, _ERROR, _TIMEOUT, _INFRA = "ok", "error", "timeout", "infra"


class _CircuitBreaker:
    """Counts *consecutive* infrastructure failures; trips at threshold.

    Shared across every supervisor thread of a run.  Any non-infra
    attempt outcome resets the streak — a flaky cell retrying on its own
    bug must never open the breaker.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._streak = 0
        self._tripped = False
        self._lock = threading.Lock()

    def record(self, infra_failure: bool) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            self._streak = self._streak + 1 if infra_failure else 0
            if self._streak >= self.threshold:
                self._tripped = True

    @property
    def tripped(self) -> bool:
        return self._tripped


def _worker(
    conn: Connection,
    spec: CellSpec,
    params: ExperimentParams,
    inject: Optional[FaultInjection],
    attempt: int,
    obs_config: Optional[ObsConfig],
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Run one cell and ship its result (or traceback) over the pipe."""
    try:
        if fault_plan is not None:
            # Each worker counts its own site hits from zero, so the
            # same plan crashes the same cell at the same point on every
            # replay regardless of scheduling.
            faults.activate(fault_plan)
        if obs_config is not None:
            # Metrics events append to the shared events.jsonl; every
            # line carries this cell's id (and pid), so concurrent
            # workers interleave without ambiguity.
            obs_events.activate(obs_config, cell=spec.cell_id)
        maybe_inject(spec, inject, attempt)
        with maybe_profile(obs_config, spec.cell_id, attempt):
            result = run_cell(spec, params)
        conn.send({"ok": True, "result": result.to_dict()})
    except BaseException:
        try:
            conn.send({"ok": False, "error": traceback.format_exc()})
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


def _attempt_isolated(
    spec: CellSpec,
    params: ExperimentParams,
    config: HarnessConfig,
    inject: Optional[FaultInjection],
    attempt: int,
    obs_config: Optional[ObsConfig] = None,
) -> Tuple[str, Optional[ExperimentResult], Optional[str]]:
    ctx = multiprocessing.get_context(_start_method())
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker,
        args=(
            child_conn,
            spec,
            params,
            inject,
            attempt,
            obs_config,
            faults.active_plan(),
        ),
        daemon=True,
        name=f"repro-cell-{spec.cell_id}",
    )
    try:
        faults.fire("worker_spawn")
        with _proc_lifecycle_lock:
            proc.start()
    except (OSError, InjectedCrash) as exc:
        parent_conn.close()
        child_conn.close()
        return (_INFRA, None, f"worker spawn failed: {exc}")
    child_conn.close()
    timed_out = False
    payload = None
    try:
        if not parent_conn.poll(config.timeout_s):
            timed_out = True
            proc.terminate()
        else:
            try:
                payload = parent_conn.recv()
            except EOFError:
                payload = None
    finally:
        # Reap and release the worker on *every* exit path — a killed or
        # crashed Process left unjoined is a zombie, and an unclosed one
        # leaks its sentinel fd, which adds up over a --jobs sweep.
        parent_conn.close()
        with _proc_lifecycle_lock:
            proc.join(5)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join()
            exitcode = proc.exitcode
            proc.close()
    if timed_out:
        return (_TIMEOUT, None,
                f"no result within {config.timeout_s}s; worker killed")
    if payload is None:
        # The cell's own exceptions ship a payload; dying without one
        # means the *process* was lost (OOM kill, segfault, injected
        # kill) — an infrastructure failure, not a cell bug.
        return (_INFRA, None,
                f"worker died with exit code {exitcode} before "
                "producing a result")
    if payload.get("ok"):
        return (_OK, ExperimentResult.from_dict(payload["result"]), None)
    return (_ERROR, None, payload.get("error", "unknown worker error"))


# ----------------------------------------------------------------------
# The supervised run
# ----------------------------------------------------------------------
def _supervise_cell(
    spec: CellSpec,
    params: ExperimentParams,
    config: HarnessConfig,
    run_dir: Optional[RunDirectory],
    resume: bool,
    inject: Optional[FaultInjection],
    obs_config: Optional[ObsConfig] = None,
    event_log: Optional[EventLog] = None,
    breaker: Optional[_CircuitBreaker] = None,
) -> Tuple[CellReport, Optional[ExperimentResult]]:
    """Drive one cell through resume-check, attempts, retries, checkpoint.

    This is the complete per-cell state machine; the serial and parallel
    schedulers differ only in how many of these run at once.  When
    tracing is on, the whole supervision is a root ``cell`` span with
    child spans per attempt, retry backoff and checkpoint write —
    attached to the :class:`CellReport` (for ``report.json``) and, when
    metrics are also on, forwarded as ``span`` events.
    """
    trace_on = obs_config is not None and obs_config.trace
    tracer = (
        Tracer(
            spec.cell_id,
            on_finish=event_log.emit_span if event_log is not None else None,
        )
        if trace_on
        else NULL_TRACER
    )
    with tracer.span("cell", cell=spec.cell_id) as cell_span:
        report, result = _drive_cell(
            spec, params, config, run_dir, resume, inject, obs_config,
            tracer, breaker,
        )
        cell_span.set(status=report.status.value, attempts=report.attempts)
    if trace_on:
        report.spans = tracer.to_dicts()
    return report, result


def _drive_cell(
    spec: CellSpec,
    params: ExperimentParams,
    config: HarnessConfig,
    run_dir: Optional[RunDirectory],
    resume: bool,
    inject: Optional[FaultInjection],
    obs_config: Optional[ObsConfig],
    tracer: Union[Tracer, NullTracer],
    breaker: Optional[_CircuitBreaker] = None,
) -> Tuple[CellReport, Optional[ExperimentResult]]:
    if breaker is not None and breaker.tripped:
        return (
            CellReport(
                spec.cell_id,
                CellStatus.SKIPPED,
                attempts=0,
                seed=params.seed,
                error=(
                    "infrastructure circuit breaker open "
                    f"({breaker.threshold} consecutive infrastructure "
                    "failures); cell not started — fix the environment "
                    "and re-run with --resume"
                ),
            ),
            None,
        )

    cached = run_dir.load_checkpoint(spec.cell_id) if (run_dir and resume) else None
    if cached is not None:
        return (
            CellReport(
                spec.cell_id,
                CellStatus.SKIPPED,
                attempts=0,
                seed=params.seed,
                origin_status=cached.status,
                origin_attempts=cached.attempts,
            ),
            cached.result,
        )

    started = time.perf_counter()
    result: Optional[ExperimentResult] = None
    last_kind, last_error = _ERROR, None
    attempts = 0
    error: Optional[str] = None
    for attempt in range(1, config.retries + 2):
        attempts = attempt
        with tracer.span("attempt", attempt=attempt) as attempt_span:
            kind, result, error = _attempt_isolated(
                spec, params, config, inject, attempt, obs_config
            )
            attempt_span.set(outcome=kind)
        if breaker is not None:
            breaker.record(kind == _INFRA)
        if kind == _OK:
            break
        last_kind, last_error = kind, error
        if breaker is not None and breaker.tripped:
            break  # retrying against broken infrastructure helps nobody
        if attempt <= config.retries:
            delay = backoff_delay(config, spec.cell_id, attempt, params.seed)
            with tracer.span("backoff", attempt=attempt, delay_s=round(delay, 3)):
                time.sleep(delay)
    duration = time.perf_counter() - started

    if result is not None:
        status = CellStatus.OK if attempts == 1 else CellStatus.RETRIED
        error = None
        if run_dir is not None:
            try:
                with tracer.span("checkpoint"):
                    run_dir.save_cell(
                        spec.cell_id,
                        result,
                        status=status.value,
                        attempts=attempts,
                    )
            except (OSError, CheckpointError, InjectedCrash) as exc:
                # The result exists in memory but could not be made
                # durable; under --resume this cell would silently
                # re-run, so surface the IO failure as the cell's.
                if breaker is not None:
                    breaker.record(True)
                status = CellStatus.FAILED
                result = None
                error = f"checkpoint write failed: {exc}"
    else:
        status = CellStatus.TIMEOUT if last_kind == _TIMEOUT else CellStatus.FAILED
        error = last_error
    return (
        CellReport(
            spec.cell_id,
            status,
            attempts=attempts,
            duration_s=duration,
            seed=params.seed,
            error=error,
        ),
        result,
    )


def run_cells(
    specs: List[CellSpec],
    params: ExperimentParams,
    config: HarnessConfig,
    *,
    run_dir: Optional[RunDirectory] = None,
    resume: bool = False,
    inject: Optional[FaultInjection] = None,
    on_cell: Optional[CellCallback] = None,
    obs_config: Optional[ObsConfig] = None,
) -> RunReport:
    """Run every cell under supervision; returns the structured report.

    Completed cells checkpoint immediately (when ``run_dir`` is given), so
    a crash of the *harness itself* loses at most the in-flight cells.  On
    ``resume=True`` cells whose artifact already exists are reloaded and
    reported SKIPPED without re-running.

    ``config.jobs > 1`` supervises that many cells concurrently, each in
    its own worker process, without changing any per-cell guarantee: the
    report always lists cells in ``specs`` order, and checkpoint artifact
    bytes are identical to a serial run.  ``on_cell`` then fires in
    completion order (serialised — never concurrently).

    ``obs_config`` switches on the observability layer: metrics events
    (``run_start``/``run_end`` from the supervisor here, simulation
    heartbeats and counter deltas from inside the workers), tracing
    spans, and/or per-attempt cProfile dumps.  ``None`` (the default)
    keeps every obs code path dormant.
    """
    report = RunReport(params=params.to_dict())
    breaker = _CircuitBreaker(config.breaker_threshold)
    event_log: Optional[EventLog] = None
    if obs_config is not None and obs_config.metrics:
        event_log = EventLog(obs_config.events_path)
        event_log.emit(
            "run_start",
            params=params.to_dict(),
            cells=[s.cell_id for s in specs],
            jobs=config.jobs,
        )

    def supervise(spec: CellSpec) -> Tuple[CellReport, Optional[ExperimentResult]]:
        return _supervise_cell(
            spec, params, config, run_dir, resume, inject, obs_config,
            event_log, breaker,
        )

    try:
        if config.jobs > 1 and len(specs) > 1:
            cell_reports: List[Optional[CellReport]] = [None] * len(specs)
            callback_lock = threading.Lock()

            def supervise_at(index: int) -> None:
                spec = specs[index]
                cell_report, result = supervise(spec)
                cell_reports[index] = cell_report
                if on_cell:
                    with callback_lock:
                        on_cell(spec, cell_report, result)

            max_workers = min(config.jobs, len(specs))
            with ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-sched"
            ) as pool:
                futures = [pool.submit(supervise_at, i) for i in range(len(specs))]
                for future in as_completed(futures):
                    future.result()  # propagate scheduler bugs immediately
            for cell_report in cell_reports:
                assert cell_report is not None
                report.add(cell_report)
        else:
            for spec in specs:
                cell_report, result = supervise(spec)
                report.add(cell_report)
                if on_cell:
                    on_cell(spec, cell_report, result)

        if event_log is not None:
            event_log.emit(
                "run_end",
                summary=report.to_dict()["summary"],
                ok=report.ok,
            )
    finally:
        if event_log is not None:
            event_log.close()

    if run_dir is not None:
        run_dir.save_report(report.to_dict())
    return report

