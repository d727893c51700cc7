"""Per-simulation progress telemetry: the :class:`SimTicker`.

:func:`sim_ticker` is the single hook every simulation reaches, through
:class:`repro.system.simulator.MeasuredWindow`.  With no active event
log it returns ``None`` immediately — the entire cost of disabled
observability is that one check per simulation.

With metrics active, the driver runs its measured loop in chunks of
``heartbeat_every`` references and calls :meth:`SimTicker.tick` at each
boundary, emitting:

* a ``heartbeat`` event — references done, refs/sec since measurement
  start, plus whatever running-rate fields the driver supplies (L1 hit
  rate, MCT conflict share, accuracy-so-far, …);
* a ``counters`` event — the flattened counter *delta* since the last
  snapshot (zero entries omitted).

:meth:`SimTicker.finish` emits the closing delta (which carries the
timing counters, published only at ``finish()``) and a ``sim_end`` event
with the complete final snapshot, so replaying a simulation's deltas
reproduces its final statistics exactly.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Mapping, Optional

from repro.obs import events
from repro.obs.events import EventLog
from repro.obs.metrics import Number, diff_counters, flatten_counters

#: Per-process simulation ordinal; combined with the pid for unique ids.
_sim_counter = itertools.count(1)


class SimTicker:
    """Emits the event stream of one simulation."""

    def __init__(
        self,
        log: EventLog,
        every: int,
        *,
        bench: str,
        policy: str,
        refs: Optional[int],
        warmup: int,
    ) -> None:
        self.log = log
        self.every = every
        self.sim_id = f"{os.getpid()}-{next(_sim_counter)}"
        self._bench = bench
        self._policy = policy
        self._refs = refs
        self._warmup = warmup
        self._t0 = 0.0
        self._prev: Dict[str, Number] = {}

    def begin(self) -> None:
        """Mark the start of the *measured* window."""
        self.log.emit(
            "sim_start",
            sim=self.sim_id,
            bench=self._bench,
            policy=self._policy,
            refs=self._refs,
            warmup=self._warmup,
        )
        self._t0 = time.perf_counter()

    def tick(
        self,
        refs_done: int,
        counters: Mapping[str, object],
        **heartbeat_fields: object,
    ) -> None:
        """One heartbeat boundary: progress plus the counter delta."""
        elapsed = time.perf_counter() - self._t0
        snapshot = flatten_counters(counters)
        delta = diff_counters(snapshot, self._prev)
        self._prev = snapshot
        self.log.emit(
            "heartbeat",
            sim=self.sim_id,
            refs_done=refs_done,
            refs_per_sec=round(refs_done / elapsed, 1) if elapsed > 0 else 0.0,
            **heartbeat_fields,
        )
        if delta:
            self.log.emit("counters", sim=self.sim_id, delta=delta)

    def finish(self, refs_measured: int, counters: Mapping[str, object]) -> None:
        """Close the stream: final delta + complete final snapshot."""
        wall_s = time.perf_counter() - self._t0
        snapshot = flatten_counters(counters)
        delta = diff_counters(snapshot, self._prev)
        self._prev = snapshot
        if delta:
            self.log.emit("counters", sim=self.sim_id, delta=delta)
        self.log.emit(
            "sim_end",
            sim=self.sim_id,
            refs=refs_measured,
            wall_s=round(wall_s, 4),
            final=snapshot,
        )


def sim_ticker(
    *,
    bench: str,
    policy: str,
    refs: Optional[int],
    warmup: int,
) -> Optional[SimTicker]:
    """A ticker for one simulation, or ``None`` when metrics are off.

    This is the no-op fast path: callers pay one global check when
    observability is disabled (the default).
    """
    log = events.active_log()
    if log is None:
        return None
    return SimTicker(
        log,
        events.heartbeat_every(),
        bench=bench,
        policy=policy,
        refs=refs,
        warmup=warmup,
    )
