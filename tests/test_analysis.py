"""Tests for ``repro.analysis`` (simlint): engine, checkers, CLI.

Every registered RPR code must fire on at least one failing fixture and
stay silent on the matching passing fixture — that is the contract that
keeps the checker catalog honest.  The CLI tests cover ``--format``,
``--select``/``--ignore``, exit codes and noqa suppression.  The numpy
rules act on the dtype table's claims, so a property test executes
generated numpy snippets and checks every claim against numpy itself.
"""

from __future__ import annotations

import ast
import itertools
import json
import warnings
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.analysis import all_checkers, catalog, run
from repro.analysis.checkers.numpy_hygiene import (
    _DTYPE_CANON,
    Array,
    DtypeTable,
    NumpyHygieneChecker,
    _agree,
    _promote,
)
from repro.analysis.cli import main
from repro.analysis.core import ModuleInfo, compute_tags, suppressed, Violation

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def codes_for(*files: str) -> set:
    """All violation codes produced by running the full checker set."""
    paths = [str(FIXTURES / f) for f in files]
    result = run(paths, all_checkers())
    return {v.code for v in result.violations}


# ----------------------------------------------------------------------
# Checker contract: every code fires on a failing fixture, none on the
# passing one.
# ----------------------------------------------------------------------
FAMILIES = [
    (
        "determinism_fail.py",
        "determinism_ok.py",
        {"RPR010", "RPR011", "RPR012", "RPR013"},
    ),
    (
        "concurrency_fail.py",
        "concurrency_ok.py",
        {"RPR020", "RPR021", "RPR022"},
    ),
    # The service's event loop: blocking calls inside async defs.
    ("asyncio_fail.py", "asyncio_ok.py", {"RPR080", "RPR081"}),
    ("hotpath_fail.py", "hotpath_ok.py", {"RPR040", "RPR041", "RPR042"}),
    # The mrc package is registered simcore scope: determinism and
    # hot-path loop discipline must reach it (PR 5).
    (
        "mrc_fail.py",
        "mrc_ok.py",
        {"RPR010", "RPR011", "RPR012", "RPR013", "RPR040"},
    ),
    (
        "numpy_fail.py",
        "numpy_ok.py",
        {"RPR060", "RPR061", "RPR062", "RPR063", "RPR064"},
    ),
]
#: Test ids by fixture name, so removing a row renames no other case.
FAMILY_IDS = [fail.replace("_fail.py", "") for fail, _, _ in FAMILIES]


@pytest.mark.parametrize("fail_fixture,ok_fixture,expected", FAMILIES, ids=FAMILY_IDS)
def test_family_fires_on_fail_fixture(fail_fixture, ok_fixture, expected):
    assert codes_for(fail_fixture) == expected


@pytest.mark.parametrize("fail_fixture,ok_fixture,expected", FAMILIES, ids=FAMILY_IDS)
def test_family_silent_on_ok_fixture(fail_fixture, ok_fixture, expected):
    assert codes_for(ok_fixture) == set()


def test_new_family_fixture_counts_match_ci_selfcheck():
    # Exact per-code counts for the numpy-hygiene family; the
    # simlint-selfcheck step in .github/workflows/ci.yml pins the same
    # numbers — update both together.
    def counts(*files: str) -> Counter:
        paths = [str(FIXTURES / f) for f in files]
        return Counter(v.code for v in run(paths, all_checkers()).violations)

    assert counts("numpy_fail.py") == {
        "RPR060": 2,
        "RPR061": 2,
        "RPR062": 1,
        "RPR063": 1,
        "RPR064": 1,
    }


def test_rpr061_resolves_self_attribute_dtype(tmp_path):
    # A Trace-shaped class: ``__init__`` stores an int16 array and a
    # property sums it.  The dtype reaches the reduction only through the
    # class table's ``self.gaps`` entry, the path that found RPR061's one
    # true positive (``Trace.total_instructions``).
    module = tmp_path / "trace_shaped.py"
    module.write_text(
        "# repro-analysis-scope: src simcore\n"
        "import numpy as np\n"
        "\n"
        "\n"
        "class Trace:\n"
        "    def __init__(self, gaps):\n"
        "        self.gaps = np.asarray(gaps, dtype=np.int16)\n"
        "\n"
        "    @property\n"
        "    def total_instructions(self) -> int:\n"
        "        return int(self.gaps.sum())\n"
    )
    found = run([str(module)], all_checkers(), root=tmp_path).violations
    assert [(v.code, v.line) for v in found] == [("RPR061", 11)]
    assert "over a int16 array" in found[0].message


@pytest.mark.parametrize(
    "annotation", ["np.ndarray | None", "None | np.ndarray", '"np.ndarray | None"']
)
def test_union_with_none_claims_an_array_like_optional(annotation):
    # A parameter, a return and a class field annotated ``X | None`` make
    # the same array claims as ``Optional[X]``, so the same rules fire.
    def findings(ann: str) -> list:
        source = (
            "import numpy as np\n"
            "from typing import Optional\n"
            f"def order(keys: {ann}):\n"
            "    return keys.argsort()\n"
            f"def load() -> {ann}:\n"
            "    return None\n"
            "total = load().sum()\n"
            "class Profile:\n"
            f"    gaps: {ann}\n"
            "    def first(self):\n"
            "        return self.gaps.argsort()\n"
        )
        return sorted((v.line, v.code) for v in run_source(source))

    expected = [(4, "RPR060"), (7, "RPR061"), (11, "RPR060")]
    assert findings("Optional[np.ndarray]") == expected
    assert findings(annotation) == expected


def test_every_registered_code_has_a_firing_fixture():
    fired = codes_for(*(fail for fail, _, _ in FAMILIES))
    assert fired == set(catalog()), (
        "every code in the catalog must be proven to fire by a fixture"
    )


def test_violations_are_sorted_and_positioned():
    result = run([str(FIXTURES / "determinism_fail.py")], all_checkers())
    positions = [(v.path, v.line, v.col, v.code) for v in result.violations]
    assert positions == sorted(positions)
    assert all(v.line >= 1 and v.col >= 1 for v in result.violations)


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def test_noqa_suppresses_bare_and_coded():
    assert codes_for("noqa_ok.py") == set()


def test_noqa_with_wrong_code_does_not_suppress():
    assert codes_for("noqa_partial.py") == {"RPR010"}


def test_suppressed_helper_matches_codes():
    v = Violation("RPR010", "m", "f.py", 1, 1, "c")
    assert suppressed(v, ["x = 1  # repro: noqa"])
    assert suppressed(v, ["x = 1  # repro: noqa[RPR010]"])
    assert suppressed(v, ["x = 1  # repro: noqa[RPR003, RPR010]"])
    assert not suppressed(v, ["x = 1  # repro: noqa[RPR003]"])
    assert not suppressed(v, ["x = 1  # noqa"])


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def test_scope_tags_from_paths():
    assert "simcore" in compute_tags("src/repro/cache/stats.py", "")
    assert "harness" in compute_tags("src/repro/harness/executor.py", "")
    assert "obs" in compute_tags("src/repro/obs/events.py", "")
    assert compute_tags("tests/test_foo.py", "") == frozenset({"test"})


def test_mrc_package_is_simcore_scope():
    # The stack-distance engine is simulation core: determinism and
    # hot-path rules apply, and the package name rides along as a tag.
    tags = compute_tags("src/repro/mrc/stack.py", "")
    assert {"src", "simcore", "mrc"} <= tags


def test_scope_directive_overrides_path():
    tags = compute_tags("anything.py", "# repro-analysis-scope: simcore src")
    assert tags == frozenset({"simcore", "src"})


def test_fixtures_are_skipped_on_directory_walks():
    # The deliberate violations in tests/fixtures/analysis must not fail
    # a whole-tree run; only explicit file arguments reach them.
    result = run([str(FIXTURES.parent.parent)], all_checkers())
    fixture_hits = [v for v in result.violations if "fixtures" in v.path]
    assert fixture_hits == []


# ----------------------------------------------------------------------
# The repo's own invariant: the tree lints clean.
# ----------------------------------------------------------------------
def test_repo_tree_is_clean():
    repo_root = Path(__file__).parent.parent
    result = run(
        [str(repo_root / "src"), str(repo_root / "tests")],
        all_checkers(),
        root=repo_root,
    )
    assert result.errors == []
    assert result.violations == [], "\n".join(
        v.format() for v in result.violations
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_zero_on_clean(capsys):
    assert main([str(FIXTURES / "determinism_ok.py")]) == 0
    captured = capsys.readouterr()
    assert "OK" in captured.err


def test_cli_exit_one_on_violations(capsys):
    assert main([str(FIXTURES / "determinism_fail.py")]) == 1
    captured = capsys.readouterr()
    assert "RPR010" in captured.out
    assert "FAIL" in captured.err


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/a/path"]) == 2


def test_cli_json_output(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    codes = {v["code"] for v in payload["violations"]}
    assert codes == {"RPR010", "RPR011", "RPR012", "RPR013"}
    first = payload["violations"][0]
    assert {"code", "message", "path", "line", "col", "checker"} <= set(first)


def test_cli_select_filters_codes(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--select", "RPR010"]) == 1
    out = capsys.readouterr().out
    assert "RPR010" in out
    assert "RPR011" not in out and "RPR012" not in out and "RPR013" not in out


def test_cli_select_prefix_family(capsys):
    rc = main([str(FIXTURES / "determinism_fail.py"), "--select", "RPR01"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "RPR010" in out and "RPR013" in out


def test_cli_ignore_can_silence_everything(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--ignore", "RPR"]) == 0


@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("bogus", ["RPR9", "rpr01", "RPRX", "RPR0601"])
def test_cli_unknown_prefix_exits_two(option, bogus, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "determinism_fail.py"), option, bogus])
    assert excinfo.value.code == 2
    assert "matches no known code" in capsys.readouterr().err


def test_cli_format_json_matches_json_flag(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["code"] for v in payload["violations"]} == {
        "RPR010",
        "RPR011",
        "RPR012",
        "RPR013",
    }


def test_cli_format_github_emits_workflow_commands(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--format", "github"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert lines and all(line.startswith("::error file=") for line in lines)
    assert any("title=RPR010" in line for line in lines)
    assert all(",line=" in line and ",col=" in line for line in lines)


def test_cli_format_github_clean_tree_prints_nothing(capsys):
    assert main([str(FIXTURES / "determinism_ok.py"), "--format", "github"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_format_sarif_is_valid_minimal_log(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    (run_obj,) = payload["runs"]
    rule_ids = {r["id"] for r in run_obj["tool"]["driver"]["rules"]}
    assert rule_ids == set(catalog())
    results = run_obj["results"]
    assert {r["ruleId"] for r in results} == {"RPR010", "RPR011", "RPR012", "RPR013"}
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("determinism_fail.py")
    assert loc["region"]["startLine"] >= 1


def test_cli_list_checkers(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.splitlines()}
    assert listed == set(catalog()) and len(listed) == 17
    # Retired for plain tests (docs/static_analysis.md names each one).
    assert not listed & {"RPR003", "RPR030", "RPR031", "RPR050", "RPR051"}


def test_cli_syntax_error_reports_and_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def nope(:\n")
    assert main([str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,name",
    [(b"label = '\xe9t\xe9'\n", "latin1.py"), (b"x = 1\x00\n", "nul.py")],
)
def test_cli_unparseable_bytes_are_a_one_line_file_error(tmp_path, capsys, content, name):
    # Not UTF-8, or a null byte (a ValueError from ast.parse on 3.9): one
    # line naming the file and exit 2, never a traceback.
    bad = tmp_path / name
    bad.write_bytes(content)
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    named = [line for line in err.splitlines() if name in line]
    assert len(named) == 1 and "syntax error" in named[0], err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# The dtype table behind RPR060-064
# ----------------------------------------------------------------------
def claim(source: str, name: str) -> Optional[Array]:
    """The table's module-level claim for ``name``, read at a probe load."""
    tree = ast.parse(f"{source}\n{name}\n")
    probe = tree.body[-1]
    assert isinstance(probe, ast.Expr)
    return DtypeTable(tree).value_of(probe.value)


def test_dtype_table_array_construction_and_astype():
    src = (
        "import numpy as np\n"
        "a = np.zeros(8, dtype=np.int16)\n"
        "b = a\n"
        "c = b.astype(np.int64)\n"
    )
    assert [claim(src, n).dtype for n in "abc"] == ["int16", "int16", "int64"]


def test_dtype_table_trusts_astype_without_receiver():
    # The receiver is untracked, but .astype(np.int64) is numpy-specific
    # enough to pin the result dtype (the vector.py cumsum pattern).
    src = "import numpy as np\nwide = mystery.astype(np.int64)\n"
    assert claim(src, "wide") == Array("int64", "astype")


def test_dtype_table_comparison_is_bool_array():
    src = "import numpy as np\na = np.arange(16)\nmask = a > 4\nnone = a is None\n"
    assert claim(src, "mask") == Array("bool", "compare")
    assert claim(src, "none") is None  # identity tests give a Python bool


def test_dtype_table_alias_and_inplace_keep_dtype():
    # ``b += 1`` is not a rebinding: numpy never changes an array's dtype
    # in place.  ``c += 0.5`` rebinds the numpy scalar c to float64, so
    # reads of c lose the claim while RPR064 still sees its int64 dtype.
    src = (
        "import numpy as np\n"
        "a = np.zeros(8, dtype=np.int16)\n"
        "b = a\n"
        "b += 1\n"
        "c = a.sum(dtype=np.int64)\n"
        "c += 0.5\n"
    )
    assert claim(src, "b") == Array("int16", "np.zeros")
    assert claim(src, "c") is None
    assert [(v.code, v.line) for v in run_source(src)] == [("RPR064", 6)]


def test_dtype_table_unbound_name_has_no_claim():
    assert claim("x = 1", "never_bound") is None


def test_dtype_table_keeps_agreeing_bindings_and_drops_disagreeing():
    src = (
        "import numpy as np\n"
        "if flag:\n"
        "    x = np.ones(3, dtype=np.int64)\n"
        "    z = np.ones(3, dtype=np.int8)\n"
        "    w = np.ones(3, dtype=np.int8)\n"
        "else:\n"
        "    x = np.zeros(3, dtype=np.int64)\n"
        "    z = np.zeros(3, dtype=np.int16)\n"
        "    w = 0\n"
    )
    assert claim(src, "x").dtype == "int64"
    assert claim(src, "z") == Array(None, "join")  # an array, dtype unknown
    assert claim(src, "w") is None  # not always an array


def test_dtype_table_loop_rebinding_must_give_dtype_back():
    keeps = "import numpy as np\nx = np.zeros(3, dtype=np.int16)\nfor i in r:\n    x = x + 1\n"
    widens = "import numpy as np\nx = np.zeros(3, dtype=bool)\nfor i in r:\n    x = x + 1\n"
    assert claim(keeps, "x").dtype == "int16"
    assert claim(widens, "x") is None  # bool + 1 is the default int


def test_promote_matches_numpy_result_type():
    # Array-with-array promotion: every dtype the table claims is the one
    # numpy computes (int_ is the C long family), for every pair.
    spelled = {"int_": np.int_, "intp": np.intp, "uintp": np.uintp}
    names = sorted(set(_DTYPE_CANON.values()))
    for a, b in itertools.product(names, names):
        claimed = _promote(a, b)
        if claimed is not None:
            actual = np.result_type(np.dtype(spelled.get(a, a)), np.dtype(spelled.get(b, b)))
            assert _same_dtype(claimed, actual) if claimed == "int_" else (
                actual == np.dtype(spelled.get(claimed, claimed))), (a, b, claimed)


def test_agree_is_order_insensitive():
    claims = [Array("int64", "zeros"), Array("int64", "astype"), Array("int8"), None]
    for size in range(1, len(claims) + 1):
        for subset in itertools.combinations(claims, size):
            results = {_agree(list(p)) for p in itertools.permutations(subset)}
            assert len(results) == 1, subset


_CLASS_SRC = """
import numpy as np
from dataclasses import dataclass


@dataclass
class Profile:
    order: np.ndarray

    def first(self):
        return self.order[0]


class Trace:
    def __init__(self, gaps, wide):
        self.gaps = np.asarray(gaps, dtype=np.int16)
        self.wide = np.asarray(wide, dtype=np.int64)

    def reset(self):
        self.wide = np.zeros(0, dtype=np.int32)

    def check(self):
        def nested():
            return self.gaps, self.wide
        return nested
"""


def _self_attribute_claims() -> dict:
    tree = ast.parse(_CLASS_SRC)
    table = DtypeTable(tree)
    return {
        node.attr: table.value_of(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def test_dtype_table_resolves_self_attributes():
    # self.X agrees over every method's assignments, nested functions
    # included: gaps is always int16, wide is int64 or int32.
    claims = _self_attribute_claims()
    assert claims["gaps"].dtype == "int16"
    assert claims["wide"] == Array(None, "join")


def test_dtype_table_reads_class_body_fields():
    # A class-body field annotated np.ndarray is an array of unknown dtype.
    assert _self_attribute_claims()["order"] == Array(None, "param")


def run_source(source: str) -> list:
    """Raw numpy-hygiene findings for a simcore-scoped snippet."""
    module = ModuleInfo(
        Path("snippet.py"), "snippet.py", ast.parse(source), source.splitlines(),
        frozenset({"simcore"}),
    )
    return list(NumpyHygieneChecker().check_module(module))


# ----------------------------------------------------------------------
# Property: every claim the table makes is the dtype numpy produces
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c", "d")
_DTYPES = (
    "bool", "np.int8", "np.int16", "np.int32", "np.int64", "np.intp",
    "np.uint8", "np.uint16", "np.uint32", "np.uint64", "np.float16",
    "np.float32", "np.float64", "int", "float",
)


@st.composite
def numpy_expressions(draw, bound):
    """One right-hand side from the table's own vocabulary."""
    dt = draw(st.sampled_from(_DTYPES))
    options = [
        f"np.zeros(4, dtype={dt})", f"np.ones(4, dtype={dt})",
        f"np.array([1, 2, 3, 4], dtype={dt})", f"np.full(4, 3, dtype={dt})",
        "np.zeros(4)", "np.arange(4)", "np.arange(1, 5)",
    ]
    if bound:
        x = draw(st.sampled_from(bound))
        options += [
            x, f"{x}.astype({dt})", f"{x} > 1", f"{x} == 2", f"{x} + 1",
            f"{x} + 0.5", f"{x} / 2", f"{x}[1:3]", f"{x}[::2]", f"{x}[0]",
            f"{x}.sum()", f"{x}.sum(dtype={dt})", f"np.sum({x})",
            f"np.cumsum({x})", f"np.cumsum({x}, dtype={dt})", f"{x}.cumsum()",
        ]
    return draw(st.sampled_from(options))


@st.composite
def numpy_snippets(draw, single_bindings: bool = False):
    """Module bodies of assignments, rebinding inside if/for, and +=."""
    lines = ["import numpy as np"]
    bound: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        free = [n for n in NAMES if n not in bound]
        kinds = ["assign"] if single_bindings else ["assign", "if", "for", "aug"]
        kind = draw(st.sampled_from(kinds if bound else ["assign"]))
        if single_bindings and not free:
            break
        if kind == "aug":
            op = draw(st.sampled_from(["+= 1", "+= 0.5"]))
            lines.append(f"{draw(st.sampled_from(bound))} {op}")
            continue
        target = draw(st.sampled_from(free if single_bindings else NAMES))
        rhs = draw(numpy_expressions(bound))
        if kind == "assign":
            lines.append(f"{target} = {rhs}")
            bound.append(target)
        elif kind == "if":
            lines.append(f"if {draw(st.booleans())}:\n    {target} = {rhs}")
        else:
            count = draw(st.integers(min_value=0, max_value=2))
            lines.append(f"for _ in range({count}):\n    {target} = {rhs}")
    return "\n".join(lines)


def _execute(source: str) -> dict:
    namespace: dict = {}
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            exec(compile(source, "<snippet>", "exec"), namespace)
        except (TypeError, IndexError, NameError, OverflowError):
            reject()  # bool += 1 raises a casting error; scalars do not slice
    return namespace


def _claims(source: str) -> dict:
    return {name: claim(source, name) for name in NAMES}


def _same_dtype(claimed: str, actual: np.dtype) -> bool:
    if claimed == "int_":
        # The platform C long family: np.uint for unsigned operands.
        return actual in (np.dtype(np.int_), np.dtype(np.uint))
    return actual == np.dtype(claimed)


@settings(max_examples=300, deadline=None)
@given(numpy_snippets())
def test_dtype_claims_match_numpy(source):
    namespace = _execute(source)
    for name, claimed in _claims(source).items():
        if claimed is None or name not in namespace:
            continue
        value = namespace[name]
        assert isinstance(value, (np.ndarray, np.generic)), (source, name)
        if claimed.dtype is not None:
            assert _same_dtype(claimed.dtype, value.dtype), (
                source, name, claimed, value.dtype)


@settings(max_examples=150, deadline=None)
@given(numpy_snippets(single_bindings=True))
def test_dtype_claims_cover_single_bindings(source):
    # Without rebinding nothing can disagree: every bound name gets a
    # dtype, so the soundness property above is not vacuous.
    namespace = _execute(source)
    for name, claimed in _claims(source).items():
        if name in namespace:
            assert claimed is not None and claimed.dtype is not None, (source, name)
