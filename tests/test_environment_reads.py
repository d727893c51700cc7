"""The library reads exactly one environment variable: ``REPRO_INJECT``.

A variable the library reads is a switch no flag or signature shows, so
a new one must be a visible, reviewed change to this test.  The scan
walks ``src/repro/`` with stdlib ``ast``: every ``os.environ`` or
``os.getenv`` read must name its variable with a string literal, as
``os.environ["X"]``, ``os.environ.get("X")``, ``"X" in os.environ`` or
``os.getenv("X")``, and ``environ``/``getenv`` may not be imported bare.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Every environment variable the library may read.
READ_VARIABLES = {"REPRO_INJECT"}


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _literal(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _environ_read(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> str | None:
    """The variable an ``os.environ`` occurrence reads, if named literally."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return _literal(parent.slice)
    if isinstance(parent, ast.Attribute) and parent.attr == "get":
        call = parents.get(parent)
        if isinstance(call, ast.Call) and call.func is parent and call.args:
            return _literal(call.args[0])
    if (
        isinstance(parent, ast.Compare)
        and parent.comparators == [node]
        and isinstance(parent.ops[0], (ast.In, ast.NotIn))
    ):
        return _literal(parent.left)
    return None


def environment_reads(tree: ast.Module) -> tuple[set[str], list[tuple[int, str]]]:
    """Variables read by literal name, and (line, problem) for the rest."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    names: set[str] = set()
    problems: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        name: str | None = None
        if _is_os_attr(node, "environ"):
            name = _environ_read(node, parents)
            what = "os.environ"
        elif _is_os_attr(node, "getenv"):
            call = parents.get(node)
            if isinstance(call, ast.Call) and call.func is node and call.args:
                name = _literal(call.args[0])
            what = "os.getenv"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            bare = {a.name for a in node.names} & {"environ", "getenv", "*"}
            if bare:
                imported = ", ".join(sorted(bare))
                problems.append((node.lineno, f"imports {imported} from os"))
            continue
        else:
            continue
        if name is None:
            problems.append((node.lineno, f"{what} without a literal variable name"))
        else:
            names.add(name)
    return names, problems


def test_scan_understands_every_read_form():
    source = (
        "import os\n"
        "a = os.environ['A']\n"
        "b = os.environ.get('B', '')\n"
        "c = 'C' in os.environ\n"
        "d = os.getenv('D')\n"
        "e = os.environ.get(name)\n"
        "f = dict(os.environ)\n"
        "from os import environ\n"
    )
    names, problems = environment_reads(ast.parse(source))
    assert names == {"A", "B", "C", "D"}
    assert sorted(line for line, _ in problems) == [6, 7, 8]


def test_library_reads_only_the_pinned_variables():
    names: set[str] = set()
    problems: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        found, bad = environment_reads(ast.parse(path.read_text(), str(path)))
        names |= found
        rel = path.relative_to(SRC.parent)
        problems += [f"{rel}:{line}: {problem}" for line, problem in bad]
    assert problems == []
    assert names == READ_VARIABLES
