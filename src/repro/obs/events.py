"""Schema-versioned JSON-lines event emission (``events.jsonl``).

One harness run produces one ``events.jsonl`` in its run directory.
Every process involved — the supervising CLI and each isolated cell
worker — appends complete lines in ``O_APPEND`` mode, so the streams
interleave without tearing (each event is written as a single small
``write()``; lines identify their emitting process and cell, so readers
never rely on global ordering).

Event vocabulary (``schema`` 1; :data:`REQUIRED_FIELDS` is the table):

==============  =====================================================
``run_start``   one per campaign: params, cell list, jobs
``run_end``     one per campaign: per-status summary, ok flag
``span``        a finished tracing span (see :mod:`repro.obs.spans`)
``sim_start``   one per simulation: sim id, bench, policy, refs
``engine_fallback``  auto engine resolved to scalar: bench, policy, why
``heartbeat``   periodic progress: refs done, refs/sec, running rates
``counters``    flattened counter *deltas* since the previous snapshot
``sim_end``     final flattened counters + wall time for the sim
``mrc_start``   one per MRC pass: pass id, bench, mode, refs, sizes
``mrc_point``   one probed size: line count, misses, miss ratio
``mrc_end``     closes an MRC pass: point count + wall time
``session_open``   service session admitted: tenant, geometry, budget
``batch``       one address batch fed through a session pipeline
``answer``      one query answered (conflict share / mrc / verdict)
``session_close``  session retired: totals + close reason
==============  =====================================================

The ``counters`` deltas of a simulation sum exactly to the ``final``
snapshot in its ``sim_end`` event, which in turn equals the flattened
:meth:`~repro.cache.stats.SystemStats.as_dict` of the run — the
reconciliation ``python -m repro.obs.validate --reconcile`` enforces.

The module also holds the *runtime activation* state consulted by the
hot paths (:func:`repro.system.simulator.simulate` and friends).  When
nothing is activated — the default — the only cost a simulation pays is
one ``None`` check per :func:`simulate` call, not per reference.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Dict, Optional, Tuple

from repro import faults
from repro.obs.config import ObsConfig

#: Version of the event-line layout; bump on any incompatible change.
EVENT_SCHEMA = 1

#: The event schema: every type this version may emit, with the fields
#: it must carry (beyond schema/type/ts/pid).  The emitter and the
#: validator (:mod:`repro.obs.validate`) both read this one table.
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run_start": ("params", "cells", "jobs"),
    "run_end": ("summary", "ok"),
    "span": ("name", "span_id", "parent_id", "start_ts", "end_ts", "duration_s"),
    "sim_start": ("sim", "bench", "policy", "refs", "warmup"),
    "engine_fallback": ("bench", "policy", "reason"),
    "heartbeat": ("sim", "refs_done", "refs_per_sec"),
    "counters": ("sim", "delta"),
    "sim_end": ("sim", "refs", "wall_s", "final"),
    "mrc_start": ("sim", "bench", "mode", "refs", "sizes"),
    "mrc_point": ("sim", "size_lines", "misses", "miss_ratio"),
    "mrc_end": ("sim", "points", "wall_s"),
    "session_open": ("session", "tenant", "cache_kb", "max_blocks"),
    "batch": ("session", "refs"),
    "answer": ("session", "what"),
    "session_close": ("session", "refs", "batches", "answers", "reason"),
}

#: Every event type this schema version may emit.
EVENT_TYPES = frozenset(REQUIRED_FIELDS)


class EventLog:
    """Append-only JSON-lines sink for one run's events.

    Safe for concurrent use by threads (internal lock) and by multiple
    processes appending to the same path (``O_APPEND`` + one ``write``
    per line keeps lines intact for the small records emitted here).
    The file is opened lazily on the first emit, so constructing a log
    for a run that ends up emitting nothing leaves no file behind.
    """

    def __init__(self, path: "Path | str", *, cell: Optional[str] = None) -> None:
        self.path = Path(path)
        self.cell = cell
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None
        self._pid = os.getpid()

    def emit(self, etype: str, **fields: object) -> None:
        """Append one event line; ``fields`` must be JSON-serialisable."""
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        record: Dict[str, object] = {
            "schema": EVENT_SCHEMA,
            "type": etype,
            "ts": round(time.time(), 6),
            "pid": self._pid,
        }
        if self.cell is not None:
            record["cell"] = self.cell
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        if faults.active_plan() is not None:
            # An injected tear here leaves a partial line with no
            # newline at the end of events.jsonl — the torn tail the
            # validator tolerates and the doctor truncates.
            faults.fire("event_append", path=self.path, payload=line)
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a")
            self._fh.write(line)
            self._fh.flush()

    def emit_span(self, span: object) -> None:
        """Forward a finished :class:`~repro.obs.spans.Span`."""
        self.emit("span", **span.to_dict())  # type: ignore[attr-defined]

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Runtime activation (consulted by simulation hot paths)
# ----------------------------------------------------------------------
_active_log: Optional[EventLog] = None
_heartbeat_every: int = 0


def activate(config: Optional[ObsConfig], *, cell: Optional[str] = None) -> None:
    """Turn on event emission for this process.

    Called by harness workers at startup (with their cell id) and usable
    directly by library code.  ``config=None`` or a config without
    ``events_path`` deactivates metrics.
    """
    global _active_log, _heartbeat_every
    if config is None or config.events_path is None:
        _active_log = None
        _heartbeat_every = config.heartbeat_every if config is not None else 0
        return
    _active_log = EventLog(config.events_path, cell=cell)
    _heartbeat_every = config.heartbeat_every


def deactivate() -> None:
    """Stop emitting events from this process (the default state)."""
    global _active_log, _heartbeat_every
    if _active_log is not None:
        _active_log.close()
    _active_log = None
    _heartbeat_every = 0


def active_log() -> Optional[EventLog]:
    """The process-wide event log, or ``None`` when metrics are off."""
    return _active_log


def heartbeat_every() -> int:
    """Heartbeat cadence in measured references (0 = no heartbeats)."""
    return _heartbeat_every


def snapshot_state() -> Tuple[Optional[EventLog], int]:
    """Capture activation state so in-process cells can restore it."""
    return (_active_log, _heartbeat_every)


def restore_state(state: Tuple[Optional[EventLog], int]) -> None:
    """Inverse of :func:`snapshot_state` (does not close the old log)."""
    global _active_log, _heartbeat_every
    _active_log, _heartbeat_every = state
