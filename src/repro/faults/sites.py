"""The injection-site catalog.

A *site* is a named point where the harness or obs layer touches shared,
durable state — exactly the points a real crash can corrupt.  Hook calls
are placed in production code (not tests), so the fault model covers the
code that actually runs; each hook costs one module-global ``None``
check when no plan is armed.

==================  ====================================================
``checkpoint_write``  cell artifact persisted (``cells/<id>.json``)
``manifest_update``   manifest rewrite (prepare + per-checkpoint
                      checksum registration)
``report_finalize``   ``report.json`` written at end of run
``event_append``      one ``events.jsonl`` line appended
``worker_spawn``      cell worker process about to start
``sim_tick``          inside every simulation's measured window (the
                      two engines, PAC, shared-cache and accuracy
                      runs), every :data:`SIM_TICK_EVERY` references
``serve_accept``      classification service: connection accepted,
                      before the session handshake
``serve_batch``       classification service: one address batch about
                      to be fed through a tenant pipeline
==================  ====================================================

The first four are *write* sites: the ``partial`` fault kind tears their
destination file (a truncated prefix reaches disk, then the process
dies), modelling the post-crash state an un-fsynced ``os.replace`` can
leave behind.  At non-write sites ``partial`` degrades to ``exception``.
"""

from __future__ import annotations

from typing import Dict

#: site name -> one-line description (doctor and --help print these).
SITES: Dict[str, str] = {
    "checkpoint_write": "cell artifact write (cells/<id>.json)",
    "manifest_update": "manifest.json rewrite (prepare / checksum registry)",
    "report_finalize": "report.json write at end of run",
    "event_append": "one events.jsonl line append",
    "worker_spawn": "cell worker process start",
    "sim_tick": "mid-simulation, every SIM_TICK_EVERY measured references",
    "serve_accept": "service connection accepted (pre-handshake)",
    "serve_batch": "service address batch about to be processed",
}

#: Sites whose hook carries a destination path + payload (``partial``
#: tears the file at these; elsewhere it degrades to ``exception``).
WRITE_SITES = frozenset(
    {"checkpoint_write", "manifest_update", "report_finalize", "event_append"}
)

#: Measured-reference cadence of the ``sim_tick`` site when the
#: simulation is not already chunked by a metrics heartbeat.
SIM_TICK_EVERY = 1000
