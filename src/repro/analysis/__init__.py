"""``repro.analysis`` — simlint, the repo-specific static-analysis pass.

Eight rule families, each earned the hard way (see
``docs/static_analysis.md`` for the catalog with the original bugs):

* **stats-completeness** (RPR003) — statistics dataclasses keep their
  counters ``int`` (``reset()``/``merge()`` are inherited from
  :class:`repro.cache.stats.Counters`, so they need no rule);
* **determinism** (RPR010-013) — no wall clock, unseeded RNG, OS
  entropy or set-order dependence in the simulation core;
* **concurrency** (RPR020-022) — harness child-process lifecycle under
  the serialised lock, no bare shared-dict mutation from scheduler
  threads;
* **obs-schema** (RPR030-031) — emitted event names and the one event
  schema table must agree exactly, in both directions;
* **hot-path** (RPR040-042) — no repeated attribute chains or repeated
  ``tolist()`` slicing in simulation-core loops, no ``print()`` in
  library code;
* **durability** (RPR050-051) — harness/obs persistence goes through
  the fsync'd atomic-write path;
* **numpy-hygiene** (RPR060-064) — stable sorts, 64-bit reduction
  accumulators, hoisted ``astype``, no chained boolean-mask indexing,
  no dtype-changing in-place ops (dataflow-backed: rules fire on
  *proven* arrays and dtypes, see :mod:`repro.analysis.dataflow`);
* **stats-contract** (RPR070-072) — the scalar and vector engines'
  ``SystemStats`` write sets and measurement cadence must agree
  (cross-file join).

Run ``python -m repro.analysis src tests`` (CI does, before anything
else).  Suppress a finding with ``# repro: noqa[RPR003]`` on its line —
every suppression should say *why* in an adjacent comment.
"""

from repro.analysis.checkers import ALL_CHECKERS, catalog
from repro.analysis.core import (
    Checker,
    ModuleInfo,
    RunResult,
    Violation,
    all_checkers,
    run,
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "ModuleInfo",
    "RunResult",
    "Violation",
    "all_checkers",
    "catalog",
    "run",
]
