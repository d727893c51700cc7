"""Trace-driven simulation runner.

Thin orchestration: feed a :class:`~repro.workloads.trace.Trace` through
an engine and return the final :class:`~repro.cache.stats.SystemStats`.
Two engines produce byte-identical statistics:

* ``scalar`` — the pinned reference: every reference walks through a
  live :class:`~repro.system.memory_system.MemorySystem`.
* ``vector`` — the fast engine (:mod:`repro.system.vector`): numpy
  passes for bufferless cells, and for buffered cells on a
  direct-mapped L1 the flat-state replay of
  :mod:`repro.system.buffered`.

``engine="auto"`` (the default) picks the vector engine whenever the
run is eligible; :func:`~repro.system.vector.simulate_vector` demands
it.  Every simulation's measured window lives here:
:func:`drive` runs it in chunks of references (the scalar engine, the
buffered replay, the PAC and shared-cache runs), and the numpy passes
of the vector engine and :func:`~repro.core.accuracy.measure_accuracy`
walk the same :class:`MeasuredWindow` afterwards.  Also provides the
speedup helpers the figures are built from (IPC relative to a baseline
policy on the same trace) and the geometric/arithmetic means the paper
averages with.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    cast,
)

from repro import faults
from repro.cache.stats import SystemStats
from repro.obs import events as obs_events
from repro.obs.heartbeat import sim_ticker
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.memory_system import MemorySystem
from repro.system.policies import AssistConfig
from repro.workloads.trace import Trace

_ENGINES = ("auto", "scalar")

#: A heartbeat's payload: the counter snapshot, then the running rates.
Beat = Tuple[Mapping[str, object], Mapping[str, object]]


def check_warmup(warmup: int, refs: int) -> None:
    """Refuse a warmup that leaves none of ``refs`` references to measure."""
    if not 0 <= warmup < refs:
        raise ValueError(
            f"warmup {warmup} must lie in [0, {refs}) so at least one "
            f"of the trace's {refs} references is measured"
        )


def simulate(
    trace: Trace,
    policy: AssistConfig,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
    engine: str = "auto",
) -> SystemStats:
    """Run one trace through one policy on one machine.

    ``warmup`` references are simulated first to warm the caches, buffer
    and MCT; statistics and the cycle clock are then reset before the
    remaining references are measured (the stand-in for the paper's
    billion-instruction fast-forward).

    ``warmup`` must leave at least one reference to measure: a run whose
    entire trace is warmup would report all-zero statistics, and every
    derived rate (IPC, speedup, hit rates) downstream would silently
    divide by zero or read 0.0.

    ``engine`` selects the implementation: ``"scalar"`` always uses the
    reference per-reference loop, and ``"auto"`` (the default) uses the
    fast engine when the run is eligible, which is every run with a
    direct-mapped L1 and every bufferless one.  For an ineligible cell
    (an assist buffer beside an associative L1 — see
    :func:`repro.system.vector.vector_ineligibility`) ``"auto"`` falls
    back to the scalar engine, recording an ``engine_fallback`` event
    with the reason when metrics are active.  The engines are
    byte-identical, so the fallback never changes results; a caller that
    must time the fast engine calls
    :func:`~repro.system.vector.simulate_vector`, which raises the reason
    instead.
    """
    check_warmup(warmup, len(trace))
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: expected one of {', '.join(_ENGINES)}"
        )
    if engine == "auto":
        from repro.system import vector

        reason = vector.vector_ineligibility(policy, machine)
        if reason is None:
            return vector.simulate_vector(trace, policy, machine, warmup=warmup)
        # Fall back to the scalar reference, leaving a trace in the
        # event stream so an instrumented campaign can tell "vector ran"
        # from "vector silently declined".
        log = obs_events.active_log()
        if log is not None:
            log.emit(
                "engine_fallback",
                bench=trace.name,
                policy=policy.name,
                reason=reason,
            )
    system = MemorySystem(policy, machine)
    return drive(system, trace, policy=policy.name, warmup=warmup)


class Simulated(Protocol):
    """What :func:`drive` needs of a memory system."""

    stats: SystemStats

    def reset_measurement(self) -> None: ...

    def finish(self) -> SystemStats: ...


class Stepped(Simulated, Protocol):
    """A memory system driven one reference at a time."""

    def access(self, addr: int, *, is_load: bool = ..., gap: int = ...) -> None: ...


def _step_each(system: Stepped, trace: Trace) -> Callable[[int], None]:
    """``advance(count)``: feed ``system`` the trace's next ``count``
    references, one ``access`` each."""
    access = system.access
    # Convert the trace's numpy arrays to native lists once: indexing a
    # numpy array boxes a fresh scalar object per element, which costs
    # more than the cache lookup it feeds on short references.  One zip
    # iterator is shared by every chunk — islice() consumes it in place,
    # so no chunk copies the lists again (slicing them per loop used to
    # triple peak trace memory).
    refs: Iterator[Tuple[int, bool, int]] = zip(
        trace.addresses.tolist(), trace.is_load.tolist(), trace.gaps.tolist()
    )

    def advance(count: int) -> None:
        for addr, load, gap in islice(refs, count):
            access(addr, is_load=load, gap=gap)

    return advance


def drive(
    system: Simulated,
    trace: Trace,
    *,
    policy: str,
    warmup: int,
    advance: Optional[Callable[[int], None]] = None,
) -> SystemStats:
    """Warm ``system`` on ``warmup`` references of ``trace``, measure the
    rest; ``policy`` names the run in its ``sim_start`` event.

    ``advance(count)`` simulates the next ``count`` references; it
    defaults to one ``access`` per reference (:func:`_step_each`), and a
    system that replays whole chunks itself passes its own.
    """
    check_warmup(warmup, len(trace))
    if advance is None:
        advance = _step_each(cast(Stepped, system), trace)
    advance(warmup)
    if warmup:
        system.reset_measurement()
    window = MeasuredWindow(
        bench=trace.name, policy=policy, refs=len(trace), warmup=warmup
    )
    if not window.watched:
        # Metrics and faults off (the default): one chunk, no per-chunk
        # bookkeeping, no overhead.
        advance(len(trace) - warmup)
        return system.finish()
    window.walk(lambda _: system_beat(system.stats), advance)
    stats = system.finish()
    window.close(stats.as_dict())
    return stats


def heartbeat_fields(stats: SystemStats) -> Dict[str, float]:
    """Running-rate fields of a simulation's ``heartbeat`` event.

    Cheap derived rates over the counters, computed once per heartbeat
    and never per reference.  ``mct_conflict_share`` is the percentage
    of classified misses the MCT has called conflict so far (the online
    stand-in for accuracy, which needs the oracle of
    :mod:`repro.core.accuracy`).
    """
    classified = stats.conflict_misses_predicted + stats.capacity_misses_predicted
    return {
        "l1_hit_rate": round(stats.l1.hit_rate, 4),
        "buffer_hit_rate": round(stats.buffer.hit_rate_of_probes, 4),
        "total_hit_rate": round(stats.total_hit_rate, 4),
        "mct_conflict_share": round(
            100.0 * stats.conflict_misses_predicted / classified, 4
        )
        if classified
        else 0.0,
    }


def system_beat(stats: SystemStats) -> Beat:
    """The heartbeat payload of a simulation whose counters read ``stats``."""
    return stats.as_dict(), heartbeat_fields(stats)


def measure_boundaries(
    total: int, heartbeat_every: int, tick_every: int
) -> Iterator[Tuple[int, bool, bool]]:
    """Chunk boundaries of a measured window of ``total`` references.

    Yields ``(stop, fire, beat)`` triples covering ``(0, total]``: the
    union of the heartbeat cadence and the ``sim_tick`` fault-site
    cadence (each 0 when inactive).  ``fire`` marks every multiple of
    ``tick_every`` plus the end of the window (so a fault plan always
    gets its shot even on short windows); ``beat`` marks multiples of
    ``heartbeat_every`` strictly inside the window (no heartbeat for the
    final boundary: ``sim_end`` immediately follows with the complete
    snapshot).  Every driver walks this one schedule, so the event
    stream and fault-site hit counts are engine-independent.
    """
    position = 0
    while position < total:
        stop = total
        if heartbeat_every:
            stop = min(stop, (position // heartbeat_every + 1) * heartbeat_every)
        if tick_every:
            stop = min(stop, (position // tick_every + 1) * tick_every)
        fire = bool(tick_every) and (stop % tick_every == 0 or stop == total)
        beat = bool(heartbeat_every) and stop % heartbeat_every == 0 and stop < total
        yield stop, fire, beat
        position = stop


class MeasuredWindow:
    """One simulation's heartbeat ticker and ``sim_tick`` cadence.

    Opening it emits ``sim_start`` (metrics on) and reads the armed
    cadence, once per simulation; :meth:`walk` visits the
    :func:`measure_boundaries` schedule and :meth:`close` emits
    ``sim_end``.  Unwatched (the default), drivers run their bare loop.
    """

    def __init__(self, *, bench: str, policy: str, refs: int, warmup: int) -> None:
        self.total = refs - warmup
        self.ticker = sim_ticker(
            bench=bench, policy=policy, refs=refs, warmup=warmup
        )
        # 0 unless a fault plan arming the sim_tick site is active here.
        self.tick_every = faults.sim_tick_every()
        self.heartbeat_every = 0
        if self.ticker is not None:
            self.heartbeat_every = max(self.ticker.every, 0)
            self.ticker.begin()

    @property
    def watched(self) -> bool:
        return self.ticker is not None or self.tick_every > 0

    def walk(
        self,
        beat: Callable[[int], Beat],
        advance: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Fire ``sim_tick`` and emit heartbeats (``beat(refs_done)``'s
        payload) on both cadences; ``advance(count)``, when given,
        simulates the next ``count`` references before each boundary."""
        position = 0
        for stop, fire, is_beat in measure_boundaries(
            self.total, self.heartbeat_every, self.tick_every
        ):
            if advance is not None:
                advance(stop - position)
            position = stop
            if fire:
                faults.fire("sim_tick")
            if is_beat:
                assert self.ticker is not None
                counters, fields = beat(stop)
                self.ticker.tick(stop, counters, **fields)

    def close(self, counters: Mapping[str, object]) -> None:
        if self.ticker is not None:
            self.ticker.finish(self.total, counters)


def simulate_policies(
    trace: Trace,
    policies: Sequence[AssistConfig],
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
) -> Dict[str, SystemStats]:
    """Run the same trace through several policies (fresh system each).

    Policy names must be unique: the results are keyed by name, and a
    duplicate would silently overwrite an earlier policy's statistics.
    """
    names = [p.name for p in policies]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate policy name(s) {', '.join(map(repr, duplicates))}: "
            "results are keyed by name, so one run would silently "
            "overwrite the other (use AssistConfig.renamed())"
        )
    return {
        p.name: simulate(trace, p, machine, warmup=warmup) for p in policies
    }


def speedup(stats: SystemStats, baseline: SystemStats) -> float:
    """IPC ratio versus a baseline run of the same trace."""
    base_ipc = baseline.timing.ipc
    if base_ipc == 0:
        raise ValueError("baseline run has no cycles — was finish() called?")
    if stats.timing.ipc == 0:
        raise ValueError(
            "measured run has no instructions or no cycles (IPC is 0) — "
            "was finish() called?"
        )
    return stats.timing.ipc / base_ipc


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper's 'average speedup' bars)."""
    values = list(values)
    if not values:
        raise ValueError(
            "mean of no values — an empty average usually means a figure's "
            "per-benchmark results were filtered down to nothing"
        )
    return sum(values) / len(values)


def geomean(
    values: Iterable[float], names: Optional[Sequence[str]] = None
) -> float:
    """Geometric mean, for readers who prefer it for speedup ratios.

    ``names`` optionally labels each value (benchmark names, typically):
    a non-positive value then aborts the average with an error naming
    the offending benchmark instead of leaving the caller to bisect a
    whole figure's worth of cells.
    """
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if names is not None and len(names) != len(values):
        raise ValueError(
            f"geomean got {len(values)} values but {len(names)} names"
        )
    product = 1.0
    for index, value in enumerate(values):
        if value <= 0:
            label = names[index] if names is not None else f"value #{index}"
            raise ValueError(
                f"geomean requires positive values: {label} contributed "
                f"{value!r} (a zero-IPC cell upstream? its run likely never "
                "called finish())"
            )
        product *= value
    return product ** (1.0 / len(values))
