"""Process-local fault activation and the effect machinery.

Mirrors :mod:`repro.obs.events`: one module-global holds the active
:class:`~repro.faults.plan.FaultPlan` (``None`` by default), and every
hook in production code starts with that single ``None`` check — a
disarmed build pays nothing measurable (the bench CI gate runs with
faults off and enforces exactly that).

Hit counters are per process and per site, guarded by a lock because
supervisor threads under ``--jobs N`` hit the write sites concurrently.
Workers ``activate()`` the plan on startup (the executor passes it
alongside :class:`~repro.obs.config.ObsConfig`), so each worker counts
its own hits from zero.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.faults.plan import FaultPlan, FaultSpec, InjectedCrash
from repro.faults.sites import SIM_TICK_EVERY, WRITE_SITES

#: Exit codes a hard-killed process reports (distinct from real signals
#: so a supervisor log makes the injection unambiguous).
KILL_EXIT = 137
TORN_EXIT = 138

_lock = threading.Lock()
_active_plan: Optional[FaultPlan] = None
_hits: Dict[str, int] = {}
_fired: Dict[int, int] = {}


def activate(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` in this process (resets hit counters); None disarms."""
    global _active_plan
    with _lock:
        _active_plan = plan if plan else None
        _hits.clear()
        _fired.clear()


def deactivate() -> None:
    """Disarm fault injection in this process (the default state)."""
    activate(None)


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None`` — the zero-cost fast-path check."""
    return _active_plan


def sim_tick_every() -> int:
    """Chunk cadence for the ``sim_tick`` site; 0 when nothing is armed.

    :class:`repro.system.simulator.MeasuredWindow` reads this once per
    simulation — never per reference — and drivers keep their unchunked
    hot loop when it returns 0.
    """
    plan = _active_plan
    if plan is None:
        return 0
    return SIM_TICK_EVERY if any(s.site == "sim_tick" for s in plan.specs) else 0


def fire(
    site: str,
    *,
    path: Union[str, Path, None] = None,
    payload: Optional[str] = None,
) -> None:
    """Record one hit of ``site`` and trigger any spec scheduled for it.

    Write sites pass the destination ``path`` and the full ``payload``
    about to be written, so the ``partial`` kind can tear the file the
    way a crash between ``os.replace`` and the data reaching disk would.
    May raise (:class:`InjectedCrash`, ``OSError``), sleep, or terminate
    the process; returns normally when nothing fires.
    """
    plan = _active_plan
    if plan is None:
        return
    spec = _claim(plan, site)
    if spec is not None:
        _trigger(spec, site, path, payload)


def _claim(plan: FaultPlan, site: str) -> Optional[FaultSpec]:
    """Count the hit and return the spec that should fire now, if any."""
    with _lock:
        if _active_plan is not plan:  # disarmed concurrently
            return None
        _hits[site] = _hits.get(site, 0) + 1
        hit = _hits[site]
        for index, spec in enumerate(plan.specs):
            if spec.site != site or hit < spec.nth:
                continue
            fired = _fired.get(index, 0)
            if spec.repeat and fired >= spec.repeat:
                continue
            _fired[index] = fired + 1
            return spec
    return None


def _trigger(
    spec: FaultSpec,
    site: str,
    path: Union[str, Path, None],
    payload: Optional[str],
) -> None:
    kind = spec.kind
    if kind == "delay":
        # Seeded so a replay sleeps the same amount; short enough not to
        # stall a campaign, long enough to lose a tight timeout race.
        time.sleep(0.01 + 0.19 * random.Random(spec.seed).random())
        return
    if kind == "kill":
        os._exit(KILL_EXIT)
    if kind == "partial" and site in WRITE_SITES and path is not None:
        _tear(site, Path(path), payload or "")
        os._exit(TORN_EXIT)
    if kind == "enospc":
        raise OSError(
            errno.ENOSPC,
            f"injected ENOSPC at {site} "
            f"(fault spec {spec.format()})",
        )
    # "exception", and "partial" at a site with nothing to tear.
    raise InjectedCrash(
        f"injected {kind} fault at {site} (fault spec {spec.format()})"
    )


def _tear(site: str, path: Path, payload: str) -> None:
    """Leave a torn prefix of ``payload`` at ``path``, fsynced.

    This is the on-disk state an un-fsynced atomic write can leave after
    a power cut: the rename is durable but only part of the data is.
    ``event_append`` tears by appending a partial line; the other write
    sites tear by replacing the destination with a truncated document.
    """
    torn = payload[: max(1, len(payload) // 2)]
    mode = "a" if site == "event_append" else "w"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode) as fh:
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError:  # pragma: no cover - the point is to die regardless
        pass
