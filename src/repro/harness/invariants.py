"""Conservation-law checks for simulation statistics.

Every counter object in :mod:`repro.cache.stats` obeys a small algebra —
accesses split exactly into hits and misses, buffer hits split exactly by
role, the timing model's clock decomposes into issue time plus recorded
stalls — and carries no attribute beyond its declared fields, so a
misspelt counter store cannot vanish from ``reset()``, ``merge()`` and
``as_dict()``.  A simulation that violates one of these laws has
corrupted state (or a bookkeeping bug), and its numbers must never reach
EXPERIMENTS.md silently.

The checks are cheap (a handful of integer comparisons per *run*, not per
reference) and are applied in two places:

* the experiment harness enables them in every worker, so each
  :meth:`MemorySystem.finish` validates its own :class:`SystemStats`;
* tests call the ``check_*`` functions directly on deliberately corrupted
  objects.

The hook in :meth:`MemorySystem.finish` is gated by a debug flag: call
:func:`set_enabled`, or set ``REPRO_CHECK_INVARIANTS=1`` in the
environment.  Outside the harness and tests the flag defaults to off so
library users pay nothing.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields
from typing import List, Optional

from repro.cache.stats import (
    BufferStats,
    CacheStats,
    ClassificationStats,
    Counters,
    SystemStats,
    TimingStats,
)

#: Environment variable consulted when no explicit flag has been set,
#: and its accepted spellings (compared stripped and lower-cased).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"
_ON = ("1", "true", "yes", "on")
_OFF = ("", "0", "false", "no", "off")

#: Tolerances for the floating-point cycle-accounting closure.  The clock
#: accumulates ``gap / issue_rate`` increments one reference at a time, so
#: it drifts from the single-division ``instructions / issue_rate`` by a
#: few ULPs per reference.
_REL_TOL = 1e-6
_ABS_TOL = 1e-3

_enabled: Optional[bool] = None


class InvariantViolation(RuntimeError):
    """A statistics object broke a conservation law."""


def set_enabled(flag: Optional[bool]) -> None:
    """Force invariant checking on/off; ``None`` defers to the environment."""
    global _enabled
    _enabled = flag


def check_enabled() -> bool:
    """Whether the :meth:`MemorySystem.finish` hook should validate stats.

    Raises ``ValueError`` for an environment value that is neither on nor
    off, so a typo such as ``enable`` cannot silently turn checking off.
    """
    if _enabled is not None:
        return _enabled
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    if value in _ON:
        return True
    if value in _OFF:
        return False
    raise ValueError(
        f"{ENV_FLAG}={os.environ[ENV_FLAG]!r}: expected {'/'.join(_ON)} (check) "
        f"or {'/'.join(_OFF[1:])} or empty (do not check)"
    )


def _fail(context: str, law: str, snapshot: object) -> None:
    raise InvariantViolation(f"{context}: {law} (counters: {snapshot})")


def _require_non_negative(obj: object, context: str) -> None:
    for f in fields(obj):  # type: ignore[arg-type]
        value = getattr(obj, f.name)
        if isinstance(value, (int, float)) and value < 0:
            _fail(context, f"counter {f.name} is negative ({value})", obj)


def _undeclared(obj: Counters, prefix: str = "") -> List[str]:
    """Dotted paths of instance attributes that are not dataclass fields,
    recursing into nested counter objects."""
    declared = {f.name for f in fields(obj)}
    found: List[str] = []
    for name, value in vars(obj).items():
        if name not in declared:
            found.append(prefix + name)
        elif isinstance(value, Counters):
            found.extend(_undeclared(value, f"{prefix}{name}."))
    return found


def check_cache_stats(stats: CacheStats, context: str = "cache") -> None:
    """accesses = hits + misses; evictions ⊆ fills; writebacks ⊆ evictions."""
    _require_non_negative(stats, context)
    if stats.hits + stats.misses != stats.accesses:
        _fail(context, f"hits + misses != accesses "
              f"({stats.hits} + {stats.misses} != {stats.accesses})", stats)
    if stats.evictions > stats.fills:
        _fail(context, f"evictions ({stats.evictions}) exceed fills "
              f"({stats.fills})", stats)
    if stats.writebacks > stats.evictions:
        _fail(context, f"writebacks ({stats.writebacks}) exceed evictions "
              f"({stats.evictions})", stats)


def check_buffer_stats(stats: BufferStats, context: str = "buffer") -> None:
    """Buffer hits never exceed probes and split exactly by role."""
    _require_non_negative(stats, context)
    if stats.hits > stats.probes:
        _fail(context, f"hits ({stats.hits}) exceed probes ({stats.probes})", stats)
    by_role = stats.victim_hits + stats.prefetch_hits + stats.exclusion_hits
    if by_role != stats.hits:
        _fail(context, f"victim + prefetch + exclusion hits ({by_role}) != "
              f"hits ({stats.hits})", stats)
    if stats.swaps > stats.victim_hits:
        _fail(context, f"swaps ({stats.swaps}) exceed victim hits "
              f"({stats.victim_hits})", stats)


def check_classification_stats(
    stats: ClassificationStats, context: str = "classification"
) -> None:
    """Confusion-matrix counters are non-negative and internally consistent."""
    _require_non_negative(stats, context)
    if stats.true_conflicts + stats.true_capacities != stats.total:
        _fail(context, "confusion-matrix partitions do not sum to total", stats)
    for name in ("conflict_accuracy", "capacity_accuracy", "overall_accuracy"):
        value = getattr(stats, name)
        if not 0.0 <= value <= 100.0:
            _fail(context, f"{name} outside [0, 100] ({value})", stats)


def check_timing_stats(
    stats: TimingStats,
    context: str = "timing",
    *,
    issue_rate: Optional[float] = None,
) -> None:
    """Cycle accounting closes: cycles = instructions/issue_rate + stalls."""
    _require_non_negative(stats, context)
    if stats.instructions < stats.memory_refs:
        _fail(context, f"instructions ({stats.instructions}) below memory refs "
              f"({stats.memory_refs}) — every reference issues at least itself",
              stats)
    if issue_rate:
        expected = stats.instructions / issue_rate + stats.stall_cycles
        if not math.isclose(
            stats.cycles, expected, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
        ):
            _fail(context, f"cycle accounting does not close: cycles "
                  f"{stats.cycles} != instructions/issue_rate + stalls "
                  f"{expected}", stats)


def check_system_stats(
    stats: SystemStats,
    context: str = "system",
    *,
    issue_rate: Optional[float] = None,
    coupled: bool = True,
) -> None:
    """Validate one full-run :class:`SystemStats` object.

    ``coupled`` asserts the cross-object laws that hold for stats produced
    by one :class:`~repro.system.memory_system.MemorySystem` run (every L1
    access steps the clock; every L1 miss is classified exactly once).
    Pass ``coupled=False`` for merged or synthetic stats where only the
    per-object laws apply.
    """
    undeclared = _undeclared(stats)
    if undeclared:
        _fail(context, f"undeclared counter attribute(s) "
              f"{', '.join(undeclared)} — no reset(), merge() or as_dict() "
              f"sees them", stats)
    check_cache_stats(stats.l1, f"{context}.l1")
    check_cache_stats(stats.l2, f"{context}.l2")
    check_buffer_stats(stats.buffer, f"{context}.buffer")
    check_timing_stats(stats.timing, f"{context}.timing", issue_rate=issue_rate)
    if stats.memory_accesses < 0:
        _fail(context, "memory_accesses is negative", stats)
    if stats.memory_accesses > stats.l2.misses:
        _fail(context, f"memory accesses ({stats.memory_accesses}) exceed L2 "
              f"misses ({stats.l2.misses})", stats)
    if not coupled:
        return
    predicted = stats.conflict_misses_predicted + stats.capacity_misses_predicted
    if predicted != stats.l1.misses:
        _fail(context, f"predicted conflict + capacity ({predicted}) != L1 "
              f"misses ({stats.l1.misses}) — every miss is classified once",
              stats)
    if stats.timing.memory_refs != stats.l1.accesses:
        _fail(context, f"timing saw {stats.timing.memory_refs} references but "
              f"the L1 saw {stats.l1.accesses}", stats)


def check_accuracy_result(result: "object", context: str = "accuracy") -> None:
    """Ground-truth accuracy runs: misses partition into conflict +
    capacity (compulsory counted within capacity, as in the paper)."""
    classification: ClassificationStats = result.classification  # type: ignore[attr-defined]
    cache: CacheStats = result.cache  # type: ignore[attr-defined]
    compulsory: int = result.compulsory_misses  # type: ignore[attr-defined]
    check_classification_stats(classification, f"{context}.classification")
    check_cache_stats(cache, f"{context}.cache")
    if classification.total != cache.misses:
        _fail(context, f"classified misses ({classification.total}) != cache "
              f"misses ({cache.misses})", classification)
    if compulsory < 0 or compulsory > classification.true_capacities:
        _fail(context, f"compulsory misses ({compulsory}) outside the capacity "
              f"partition ({classification.true_capacities})", classification)


def maybe_check_system(
    stats: SystemStats, *, issue_rate: Optional[float] = None
) -> None:
    """Debug-flag-gated hook for :meth:`MemorySystem.finish`."""
    if check_enabled():
        check_system_stats(stats, issue_rate=issue_rate)


def maybe_check_accuracy(result: "object") -> None:
    """Debug-flag-gated hook for :func:`repro.core.accuracy.measure_accuracy`."""
    if check_enabled():
        check_accuracy_result(result)
