"""Conflict-aware co-scheduling (§5.6 "Multithreaded architectures").

"Jobs which produce an inordinate number of conflict misses when scheduled
together can be identified as bad candidates for co-scheduling in the
future."  The MCT makes that signal available in hardware: per schedule,
count the conflict misses of the shared cache.

:class:`CoScheduleAdvisor` measures every pairing of a set of jobs on a
shared L1 (reference-interleaved, the worst case for cache sharing),
records each pairing's conflict-miss rate, and greedily picks the pairing
set that minimises total conflict misses.  A pairing is priced by the
simulator's shared L1 + MCT pass (:func:`repro.system.vector.l1_pass`):
the MCT classifies each miss before its fill, as the hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.system.vector import l1_pass
from repro.workloads.trace import Trace, merge_round_robin


@dataclass(frozen=True)
class PairingReport:
    """Measured behaviour of one co-scheduled pair."""

    jobs: Tuple[str, str]
    miss_rate: float
    conflict_miss_rate: float   # MCT-conflict misses, % of accesses

    @property
    def conflict_share(self) -> float:
        """Conflict misses as a share of all misses, in percent."""
        return (
            100.0 * self.conflict_miss_rate / self.miss_rate
            if self.miss_rate
            else 0.0
        )


class CoScheduleAdvisor:
    """Measure pairings of jobs on a shared cache and recommend a schedule.

    Parameters
    ----------
    geometry:
        The shared cache the co-scheduled jobs contend for.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._reports: Dict[Tuple[str, str], PairingReport] = {}

    # ------------------------------------------------------------------
    def measure_pair(self, a: Trace, b: Trace) -> PairingReport:
        """Run two jobs interleaved on the shared cache and classify."""
        merged = merge_round_robin([a, b])
        blocks = merged.addresses >> self.geometry.offset_bits
        hit, _, _, conflict = l1_pass(blocks, None, self.geometry, None)
        n = len(blocks)
        misses = n - int(np.count_nonzero(hit))
        conflicts = int(np.count_nonzero(conflict))
        report = PairingReport(
            jobs=(a.name, b.name),
            miss_rate=100.0 * misses / n if n else 0.0,
            conflict_miss_rate=100.0 * conflicts / n if n else 0.0,
        )
        self._reports[self._key(a.name, b.name)] = report
        return report

    def measure_all(self, jobs: Sequence[Trace]) -> List[PairingReport]:
        """Measure every pairing of the given jobs."""
        if len({j.name for j in jobs}) != len(jobs):
            raise ValueError("job names must be unique")
        return [self.measure_pair(a, b) for a, b in combinations(jobs, 2)]

    def recommend(self, job_names: Sequence[str]) -> List[Tuple[str, str]]:
        """Greedy minimum-conflict pairing of an even set of jobs.

        Requires every pairing among ``job_names`` to have been measured.
        Returns pairs sorted by ascending conflict-miss rate; each job
        appears exactly once.
        """
        if len(job_names) % 2:
            raise ValueError("need an even number of jobs to pair")
        candidates = sorted(
            (
                (self._report_for(a, b).conflict_miss_rate, a, b)
                for a, b in combinations(job_names, 2)
            ),
        )
        placed: set[str] = set()
        schedule: List[Tuple[str, str]] = []
        for _, a, b in candidates:
            if a in placed or b in placed:
                continue
            schedule.append((a, b))
            placed.update((a, b))
        return schedule

    def report_for(self, a: str, b: str) -> PairingReport:
        """The measured report for one pairing (order-insensitive)."""
        return self._report_for(a, b)

    # ------------------------------------------------------------------
    def _report_for(self, a: str, b: str) -> PairingReport:
        try:
            return self._reports[self._key(a, b)]
        except KeyError:
            raise KeyError(
                f"pairing ({a}, {b}) has not been measured; call "
                "measure_pair or measure_all first"
            ) from None

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)
