"""``repro.analysis`` — simlint, the repo-specific static-analysis pass.

Four rule families, each earned the hard way (``docs/static_analysis.md``
is the catalog, with the original bugs):

* **determinism** (RPR010-013) — no wall clock, unseeded RNG, OS entropy
  or set-order dependence in the simulation core;
* **concurrency** (RPR020-022, RPR080-081) — harness process lifecycle
  under the lock, no bare shared-dict mutation from scheduler threads, no
  blocking sleep or file I/O in ``async def`` bodies;
* **hot-path** (RPR040-042) — no repeated attribute chains or ``tolist()``
  slicing in simulation-core loops, no ``print()`` in library code;
* **numpy-hygiene** (RPR060-064) — stable sorts, 64-bit accumulators,
  hoisted ``astype``, no chained mask indexing or dtype-changing in-place
  ops; rules fire on arrays and dtypes claimed by a per-scope dtype table
  (:class:`repro.analysis.checkers.numpy_hygiene.DtypeTable`).

Contracts over a few live objects are plain tests instead: the
engines' ``SystemStats`` (RPR070-072), integer counters (RPR003), the
event schema (RPR030-031) and durable run-directory writes (RPR050-051);
``docs/static_analysis.md`` names each replacing test.

Run ``python -m repro.analysis src tests`` (CI does, before anything
else).  Suppress a finding with ``# repro: noqa[RPR060]`` on its line —
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
