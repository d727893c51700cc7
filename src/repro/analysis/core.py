"""The simlint engine: file collection, scoping, suppression, reporting.

``repro.analysis`` is a *domain-specific* static-analysis pass: each
checker encodes an invariant this repository has already been bitten by
(or now depends on), keyed by an ``RPR0xx`` error code.  The framework
here is deliberately small:

* a :class:`ModuleInfo` per checked file (parsed AST + source lines +
  scope tags),
* a :class:`Checker` base class with a per-module pass and an optional
  cross-module ``finalize`` pass (used by the obs-schema checker, whose
  emit sites and schema table live in different files),
* ``# repro: noqa`` / ``# repro: noqa[RPR003,RPR040]`` line suppressions,
* deterministic, sorted output (the linter itself must obey the repo's
  determinism rules — its output feeds CI diffs).

Scope tags drive applicability: the determinism rules apply to the
simulation core but not to the harness (whose backoff jitter *is*
seeded wall-clock-free already, but which legitimately sleeps), the
concurrency rules apply to the harness only, and so on.  A fixture file
can override its computed tags with a ``# repro-analysis-scope: ...``
directive so checker tests are self-contained.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import DataflowAnalysis

#: Sub-packages of ``repro`` forming the deterministic simulation core.
SIMCORE_PACKAGES = frozenset(
    {"cache", "buffers", "core", "system", "workloads", "extensions", "mrc"}
)

#: Directive overriding a file's computed scope tags (fixtures use this).
_SCOPE_DIRECTIVE = re.compile(r"#\s*repro-analysis-scope:\s*([\w\s,-]+)")

#: Line suppression: ``# repro: noqa`` or ``# repro: noqa[RPR003,RPR040]``.
_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Violation:
    """One finding, anchored to a file position."""

    code: str
    message: str
    path: str
    line: int
    col: int
    checker: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "checker": self.checker,
        }


@dataclass
class ModuleInfo:
    """One parsed source file plus everything checkers need to scope it."""

    path: Path
    rel: str
    tree: ast.Module
    lines: List[str]
    tags: FrozenSet[str]
    _dataflow: Optional[DataflowAnalysis] = field(
        default=None, repr=False, compare=False
    )

    def dataflow(self) -> DataflowAnalysis:
        """Flow analysis of this module, built on first use and cached.

        Resolves against classes defined *in this module* only; a
        checker that needs classes from other files (the stats-contract
        join) builds its own :class:`DataflowAnalysis` with a merged
        class table in ``finalize``.
        """
        if self._dataflow is None:
            self._dataflow = DataflowAnalysis(self.tree)
        return self._dataflow

    def violation(
        self, checker: "Checker", code: str, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            code=code,
            message=message,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            checker=checker.name,
        )


class Checker:
    """Base class: subclasses set ``name``/``codes``/``tags`` and override
    :meth:`check_module` (and :meth:`finalize` for cross-file rules).

    ``tags`` is the set of scope tags a module must intersect for the
    checker to visit it; ``None`` means every checked module.
    """

    name: str = "checker"
    #: code -> one-line description (the catalog ``--list-checkers`` prints).
    codes: Dict[str, str] = {}
    tags: Optional[FrozenSet[str]] = None

    def applies(self, module: ModuleInfo) -> bool:
        return self.tags is None or bool(self.tags & module.tags)

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        return iter(())

    def finalize(self) -> Iterator[Violation]:
        """Cross-module findings, called once after every module pass."""
        return iter(())


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def compute_tags(rel: str, source_head: str) -> FrozenSet[str]:
    """Scope tags for a file: directive wins, else derived from its path.

    Tags: ``src`` (library code under ``src/repro``), ``simcore``,
    ``harness``, ``obs``, ``analysis``, ``experiments``, ``serve``,
    ``test``.  A
    simulation-core file additionally carries its own package name
    (``cache``, ``mrc``, ...) so a checker can target one subsystem
    without widening its scope to the whole core.
    """
    match = _SCOPE_DIRECTIVE.search(source_head)
    if match:
        tags = {t for t in re.split(r"[,\s]+", match.group(1).strip()) if t}
        return frozenset(tags)
    parts = Path(rel).parts
    tags = set()
    if "repro" in parts:
        package = parts[parts.index("repro") + 1] if parts[-1] != "repro" else ""
        package = package[:-3] if package.endswith(".py") else package
        tags.add("src")
        if package in SIMCORE_PACKAGES:
            tags.add("simcore")
            tags.add(package)
        elif package in {
            "harness",
            "obs",
            "analysis",
            "experiments",
            "faults",
            "serve",
        }:
            tags.add(package)
    if "tests" in parts:
        tags.add("test")
    return frozenset(tags)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted, deduplicated.

    Directories are walked recursively; ``fixtures/analysis`` trees are
    skipped during the walk (they hold *deliberate* violations for the
    checker tests) but a fixture given explicitly as a file argument is
    always checked — that is how the tests drive them.
    """
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                rel_parts = sub.parts
                if "fixtures" in rel_parts and "analysis" in rel_parts:
                    continue
                if sub not in seen:
                    seen.add(sub)
                    yield sub
        elif path.suffix == ".py":
            if path not in seen:
                seen.add(path)
                yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def suppressed(violation: Violation, lines: List[str]) -> bool:
    """Whether the violation's source line carries a matching noqa."""
    if not 1 <= violation.line <= len(lines):
        return False
    match = _NOQA.search(lines[violation.line - 1])
    if not match:
        return False
    if match.group(1) is None:
        return True
    codes = {c.strip() for c in match.group(1).split(",")}
    return violation.code in codes


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything one engine run produced."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)


def relpath_for(path: Path, root: Optional[Path] = None) -> str:
    base = root or Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_module(path: Path, root: Optional[Path] = None) -> Tuple[Optional[ModuleInfo], Optional[str]]:
    """Parse one file into a ModuleInfo, or return an error string."""
    rel = relpath_for(path, root)
    try:
        source = path.read_text()
    except OSError as exc:
        return None, f"{rel}: unreadable ({exc})"
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return None, f"{rel}: syntax error ({exc.msg} at line {exc.lineno})"
    lines = source.splitlines()
    head = "\n".join(lines[:10])
    return ModuleInfo(path, rel, tree, lines, compute_tags(rel, head)), None


def run(
    paths: Sequence[str],
    checkers: Sequence[Checker],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> RunResult:
    """Run ``checkers`` over ``paths``; returns sorted, noqa-filtered findings.

    ``select``/``ignore`` are code prefixes (``RPR0`` selects the whole
    family), applied after suppression: select first (empty = all), then
    ignore.
    """
    result = RunResult()
    lines_by_path: Dict[str, List[str]] = {}
    raw: List[Violation] = []
    for path in iter_python_files(paths):
        module, error = load_module(path, root)
        if module is None:
            assert error is not None
            result.errors.append(error)
            continue
        result.files_checked += 1
        lines_by_path[module.rel] = module.lines
        for checker in checkers:
            if checker.applies(module):
                raw.extend(checker.check_module(module))
    for checker in checkers:
        raw.extend(checker.finalize())

    def kept(v: Violation) -> bool:
        lines = lines_by_path.get(v.path)
        if lines is not None and suppressed(v, lines):
            return False
        if select and not any(v.code.startswith(s) for s in select):
            return False
        if ignore and any(v.code.startswith(s) for s in ignore):
            return False
        return True

    deduped: Dict[Tuple[str, int, int, str], Violation] = {}
    for v in raw:
        if kept(v):
            deduped.setdefault((v.path, v.line, v.col, v.code), v)
    result.violations = sorted(
        deduped.values(), key=lambda v: (v.path, v.line, v.col, v.code)
    )
    return result


# ----------------------------------------------------------------------
# Shared AST helpers (used by several checkers)
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name in {"dataclass", "dataclasses.dataclass"}:
            return True
    return False


def literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def all_checkers() -> List[Checker]:
    """The full registered checker set, in catalog order."""
    from repro.analysis.checkers import ALL_CHECKERS

    return [cls() for cls in ALL_CHECKERS]
