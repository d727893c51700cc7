"""Checker registry: every rule family, in catalog (code) order.

To add a checker: subclass :class:`repro.analysis.core.Checker`, give it
a ``name``, a ``codes`` dict and scope ``tags``, implement
``check_module``, then append the class here and add one passing and
one failing fixture under ``tests/fixtures/analysis/`` —
``tests/test_analysis.py`` asserts every registered code fires on at
least one fixture.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.checkers.concurrency import ConcurrencyChecker
from repro.analysis.checkers.determinism import (
    DeterminismChecker,
    SetOrderConstructorChecker,
)
from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.checkers.numpy_hygiene import NumpyHygieneChecker
from repro.analysis.core import Checker

ALL_CHECKERS: List[Type[Checker]] = [
    DeterminismChecker,
    SetOrderConstructorChecker,
    ConcurrencyChecker,
    HotPathChecker,
    NumpyHygieneChecker,
]


def catalog() -> Dict[str, str]:
    """code -> description across every registered checker."""
    out: Dict[str, str] = {}
    for cls in ALL_CHECKERS:
        for code, description in cls.codes.items():
            out.setdefault(code, description)
    return dict(sorted(out.items()))
