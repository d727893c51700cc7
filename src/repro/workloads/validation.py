"""Workload self-validation.

The SPEC95 analogs carry calibration contracts (miss-rate bands against
the paper's 16KB DM L1, a nontrivial conflict/capacity mix, determinism,
bounded footprints).  This module checks them — the test suite uses it,
and it runs standalone after retuning an analog:

    python -m repro.workloads.validation [bench ...]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.argtypes import checked
from repro.cache.geometry import CacheGeometry
from repro.core.accuracy import measure_accuracy
from repro.workloads.spec_analogs import EVAL_SUITE, SUITE, build

#: Calibration cache (the paper's L1).
REFERENCE_GEOMETRY = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)

#: Acceptable base miss-rate bands per benchmark (percent, inclusive).
#: tomcatv is pinned near the paper's 38%; the irregular C codes stay
#: modest; everything else sits in a plausible SPEC95 band.
MISS_RATE_BANDS: Dict[str, tuple[float, float]] = {
    "tomcatv": (30.0, 45.0),
    "swim": (10.0, 25.0),
    "su2cor": (8.0, 25.0),
    "hydro2d": (12.0, 32.0),
    "mgrid": (8.0, 28.0),
    "applu": (8.0, 28.0),
    "turb3d": (20.0, 40.0),
    "apsi": (5.0, 22.0),
    "wave5": (12.0, 32.0),
    "go": (2.0, 14.0),
    "m88ksim": (0.5, 8.0),
    "gcc": (5.0, 22.0),
    "compress": (20.0, 45.0),
    "li": (5.0, 22.0),
    "ijpeg": (6.0, 26.0),
    "perl": (2.0, 14.0),
    "vortex": (6.0, 26.0),
}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one analog."""

    name: str
    miss_rate: float
    conflict_fraction: float
    conflict_accuracy: float
    capacity_accuracy: float
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(name: str, n_refs: int = 40_000, seed: int = 0) -> ValidationReport:
    """Check one analog against its calibration contract."""
    trace = build(name, n_refs, seed)
    problems: List[str] = []

    # Determinism.
    again = build(name, n_refs, seed)
    if (trace.addresses != again.addresses).any():
        problems.append("non-deterministic addresses for fixed seed")

    result = measure_accuracy(trace.addresses, REFERENCE_GEOMETRY)

    low, high = MISS_RATE_BANDS[name]
    if not low <= result.miss_rate <= high:
        problems.append(
            f"miss rate {result.miss_rate:.1f}% outside [{low}, {high}]"
        )

    if name in EVAL_SUITE and not 4.0 < result.conflict_fraction < 96.0:
        problems.append(
            "Section-5 benchmark lacks an interesting conflict/capacity mix "
            f"(conflict fraction {result.conflict_fraction:.1f}%)"
        )

    return ValidationReport(
        name=name,
        miss_rate=result.miss_rate,
        conflict_fraction=result.conflict_fraction,
        conflict_accuracy=result.conflict_accuracy,
        capacity_accuracy=result.capacity_accuracy,
        problems=tuple(problems),
    )


def validate_suite(
    names: Sequence[str] | None = None, n_refs: int = 40_000
) -> List[ValidationReport]:
    """Validate several analogs (default: the whole registry)."""
    return [validate(name, n_refs) for name in (names or list(SUITE))]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.validation",
        description="Check SPEC95 analogs against their calibration contracts.",
    )
    parser.add_argument(
        "benches",
        nargs="*",
        type=checked(str, lambda name: build(name, 0)),
        help="analogs to validate (default: every registered analog)",
    )
    reports = validate_suite(parser.parse_args(argv).benches or None)
    print(f"{'bench':<9} {'miss%':>6} {'conf-frac':>10} "
          f"{'conf-acc':>9} {'cap-acc':>8}  status")
    bad = 0
    for r in reports:
        status = "ok" if r.ok else "; ".join(r.problems)
        bad += not r.ok
        print(f"{r.name:<9} {r.miss_rate:6.1f} {r.conflict_fraction:10.1f} "
              f"{r.conflict_accuracy:9.1f} {r.capacity_accuracy:8.1f}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
