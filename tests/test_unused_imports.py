"""No module-level import in ``src/`` or ``tests/`` goes unused.

CI's ruff reports these as F401, but ruff is a lint-only dependency; this
stdlib-``ast`` scan makes the plain test run catch them too.  An import
counts as used when its bound name is read anywhere in the module, is
listed in ``__all__`` or is named inside a string annotation.
``__init__.py`` files are skipped (their imports are re-exports), as are
``from __future__`` imports and the deliberately faulty simlint fixtures,
which ruff excludes as well.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "analysis"


def module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(line, bound name) of each import outside functions and classes."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> Set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return names


def unused_imports() -> List[str]:
    found: List[str] = []
    for top in ("src", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            if path.name == "__init__.py" or FIXTURES in path.parents:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            used = used_names(tree)
            rel = path.relative_to(REPO).as_posix()
            found.extend(
                f"{rel}:{line} {name}"
                for line, name in sorted(module_imports(tree))
                if name not in used
            )
    return found


def test_no_unused_module_imports():
    assert unused_imports() == []
