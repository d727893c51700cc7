"""RPR003 — statistics counters are integers.

Replay reconciliation requires the ``counters`` deltas in
``events.jsonl`` to sum *exactly* to the final snapshot, and a float
counter accumulates rounding error that breaks that.  Completeness of
``reset()``/``merge()`` needs no rule: every statistics dataclass
inherits the one fields()-driven implementation on
:class:`repro.cache.stats.Counters`, and a test asserts that no
``*Stats`` class defines its own.

A class is *stats-like* when it is a ``@dataclass`` following the
repo's naming convention — class name ending in ``Stats``, or any
dataclass inside a ``stats.py`` module — and declares at least two
scalar counter fields (``int`` / ``float`` annotation, zero default).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, is_dataclass


def _counter_fields(node: ast.ClassDef) -> List[Tuple[str, str, ast.AnnAssign]]:
    """(name, annotation, node) for scalar counter fields of a dataclass."""
    out: List[Tuple[str, str, ast.AnnAssign]] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        if not isinstance(stmt.annotation, ast.Name):
            continue
        annotation = stmt.annotation.id
        if annotation not in {"int", "float"}:
            continue
        default = stmt.value
        if (
            isinstance(default, ast.Constant)
            and isinstance(default.value, (int, float))
            and not isinstance(default.value, bool)
            and default.value == 0
        ):
            out.append((stmt.target.id, annotation, stmt))
    return out


class StatsCompletenessChecker(Checker):
    name = "stats-completeness"
    codes: Dict[str, str] = {
        "RPR003": "counter field annotated float (counters must be int; "
        "noqa only for genuinely fractional quantities)",
    }
    tags: Optional[FrozenSet[str]] = frozenset({"src"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        stats_module = module.path.name == "stats.py"
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not is_dataclass(node):
                continue
            if not (node.name.endswith("Stats") or stats_module):
                continue
            counters = _counter_fields(node)
            if len(counters) < 2:
                continue
            for field_name, annotation, stmt in counters:
                if annotation == "float":
                    yield module.violation(
                        self,
                        "RPR003",
                        stmt,
                        f"{node.name}.{field_name} is a float counter; "
                        f"counters must be int so replay/merge stays exact",
                    )
