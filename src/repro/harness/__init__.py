"""Fault-tolerant experiment harness.

The CLI runner routes every experiment through this package, which turns
the monolithic ``repro-experiments all`` sweep into a sequence of
independently supervised *cells*:

* :mod:`repro.harness.cells` — the cell registry: one cell per
  (experiment, variant) pair, resolvable by name so only strings cross
  process boundaries.
* :mod:`repro.harness.executor` — every cell in its own ``multiprocessing``
  worker, with a configurable timeout, retry with exponential backoff +
  jitter, and deterministic fault injection for testing.
* :mod:`repro.harness.checkpoint` — schema-versioned JSON artifacts under
  a run directory; ``--resume`` skips cells whose artifact is present.
* :mod:`repro.harness.invariants` — conservation-law checks for
  :class:`~repro.cache.stats.SystemStats` and classification results,
  run at the end of every simulation and accuracy run.
* :mod:`repro.harness.report` — the per-cell OK / RETRIED / TIMEOUT /
  FAILED / SKIPPED run report, printed at the end and saved as
  ``report.json``.

Only the light, dependency-free modules are imported here so that core
simulation code (e.g. :mod:`repro.system.memory_system`) can import the
invariant checker without dragging in the experiment registry.
"""

from repro.harness.invariants import InvariantViolation, check_system_stats
from repro.harness.report import CellReport, CellStatus, RunReport

__all__ = [
    "CellReport",
    "CellStatus",
    "InvariantViolation",
    "RunReport",
    "check_system_stats",
]
