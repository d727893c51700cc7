"""RPR030-031 — event names vs. the event schema, both directions.

The observability contract has one table: ``REQUIRED_FIELDS`` in
:mod:`repro.obs.events`, from which the emitter's ``EVENT_TYPES`` is
derived and against which ``python -m repro.obs.validate`` checks.  A
name emitted but absent from it means events that can never validate
(silent telemetry loss in CI); a name in it that nothing emits is a
dead contract entry.  This checker joins emit sites and the table
*statically* across files:

* every string literal passed to an ``.emit("name", ...)`` call must be
  a schema name (RPR030);
* every schema name must be emitted by at least one call site (RPR031).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, literal_str


class ObsSchemaChecker(Checker):
    name = "obs-schema"
    codes: Dict[str, str] = {
        "RPR030": "event name emitted but absent from the event schema",
        "RPR031": "schema event name never emitted anywhere",
    }
    # Collects from library code only: tests emit deliberately-bogus
    # names when exercising the runtime guard, and those are not part of
    # the contract.
    tags: Optional[FrozenSet[str]] = frozenset({"src"})

    def __init__(self) -> None:
        # (name, module, node) per emit site / schema entry, in visit order.
        self._emits: List[Tuple[str, ModuleInfo, ast.AST]] = []
        self._schema: List[Tuple[str, ModuleInfo, ast.AST]] = []

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._collect_emit(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_schema(module, node)
        return iter(())

    def _collect_emit(self, module: ModuleInfo, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "emit":
            return
        if not node.args:
            return
        name = literal_str(node.args[0])
        if name is not None:
            self._emits.append((name, module, node))

    def _collect_schema(
        self, module: ModuleInfo, node: ast.Assign | ast.AnnAssign
    ) -> None:
        targets: List[ast.expr] = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if not any(
            isinstance(t, ast.Name) and t.id == "REQUIRED_FIELDS" for t in targets
        ):
            return
        if isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                name = literal_str(key) if key is not None else None
                if name is not None:
                    self._schema.append((name, module, key))

    def finalize(self) -> Iterator[Violation]:
        # No schema in the checked set (e.g. a run over a subtree that
        # excludes obs/): nothing to join against, so stay silent rather
        # than flagging every emit site.
        if not self._schema:
            return
        schema = {n for n, _, _ in self._schema}
        emitted = {n for n, _, _ in self._emits}
        # `emit` is also the generic entry point spans go through:
        # EventLog.emit_span forwards with the literal "span", which the
        # collection above already sees, so no special-casing is needed.
        for name, module, node in self._emits:
            if name not in schema:
                yield module.violation(
                    self,
                    "RPR030",
                    node,
                    f"event {name!r} is emitted but absent from the "
                    f"event schema (REQUIRED_FIELDS)",
                )
        for name, module, node in self._schema:
            if name not in emitted:
                yield module.violation(
                    self,
                    "RPR031",
                    node,
                    f"schema event {name!r} is never emitted by any call "
                    f"site — dead contract entry",
                )
