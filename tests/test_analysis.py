"""Tests for ``repro.analysis`` (simlint): engine, checkers, CLI.

Every registered RPR code must fire on at least one failing fixture and
stay silent on the matching passing fixture — that is the contract that
keeps the checker catalog honest.  The CLI tests cover ``--json``,
``--select``/``--ignore``, exit codes and noqa suppression.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import all_checkers, catalog, run
from repro.analysis.cli import main
from repro.analysis.core import compute_tags, suppressed, Violation

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
    ("stats_fail.py", "stats_ok.py", {"RPR003"}),
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
    ("obs_schema_fail.py", "obs_schema_ok.py", {"RPR030", "RPR031"}),
    ("hotpath_fail.py", "hotpath_ok.py", {"RPR040", "RPR041", "RPR042"}),
    ("durability_fail.py", "durability_ok.py", {"RPR050", "RPR051"}),
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


@pytest.mark.parametrize("fail_fixture,ok_fixture,expected", FAMILIES)
def test_family_fires_on_fail_fixture(fail_fixture, ok_fixture, expected):
    assert codes_for(fail_fixture) == expected


@pytest.mark.parametrize("fail_fixture,ok_fixture,expected", FAMILIES)
def test_family_silent_on_ok_fixture(fail_fixture, ok_fixture, expected):
    assert codes_for(ok_fixture) == set()


def test_new_family_fixture_counts_match_ci_selfcheck():
    # Exact per-code counts for the dataflow-backed family; the
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
    assert main([str(FIXTURES / "stats_ok.py")]) == 0
    captured = capsys.readouterr()
    assert "OK" in captured.err


def test_cli_exit_one_on_violations(capsys):
    assert main([str(FIXTURES / "stats_fail.py")]) == 1
    captured = capsys.readouterr()
    assert "RPR003" in captured.out
    assert "FAIL" in captured.err


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/a/path"]) == 2


def test_cli_json_output(capsys):
    assert main([str(FIXTURES / "determinism_fail.py"), "--json"]) == 1
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
    assert main([str(FIXTURES / "stats_fail.py"), "--ignore", "RPR"]) == 0


@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("bogus", ["RPR9", "rpr01", "RPRX", "RPR0601"])
def test_cli_unknown_prefix_exits_two(option, bogus, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "stats_fail.py"), option, bogus])
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
    assert main([str(FIXTURES / "stats_ok.py"), "--format", "github"]) == 0
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
    for code in ("RPR003", "RPR010", "RPR020", "RPR030", "RPR040"):
        assert code in out


def test_cli_syntax_error_reports_and_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def nope(:\n")
    assert main([str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().err
