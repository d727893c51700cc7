"""``python -m repro.analysis`` — the simlint command line.

Usage::

    python -m repro.analysis src tests
    python -m repro.analysis src --format json
    python -m repro.analysis src --format github   # PR annotations
    python -m repro.analysis src --format sarif > simlint.sarif
    python -m repro.analysis src --select RPR06 --ignore RPR013
    python -m repro.analysis --list-checkers

Exit status: 0 clean, 1 violations found, 2 usage or I/O error — the
same contract as ``repro.obs.validate``, so CI treats both uniformly.
``--select``/``--ignore`` take full codes or family prefixes
(``RPR06`` is the whole numpy-hygiene family); a prefix that matches
nothing in the catalog is a usage error (exit 2), not a silent no-op.
Directories are walked recursively; ``tests/fixtures/analysis`` is
skipped unless a fixture file is named explicitly (the fixtures are
deliberate violations that the checker tests drive one file at a time).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.checkers import catalog
from repro.analysis.core import RunResult, Violation, all_checkers, run

FORMATS = ("text", "json", "github", "sarif")


def _code_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    codes = [c.strip() for c in raw.split(",") if c.strip()]
    return codes or None


def _validate_prefixes(
    parser: argparse.ArgumentParser, option: str, codes: Optional[List[str]]
) -> None:
    """Reject a --select/--ignore entry no catalog code starts with.

    A typo like ``RPR6`` (for ``RPR06``) or ``rpr060`` would otherwise
    select nothing and pass a gate vacuously.
    """
    if not codes:
        return
    known = catalog()
    for entry in codes:
        if not any(code.startswith(entry) for code in known):
            parser.error(
                f"{option}: {entry!r} matches no known code or family "
                f"prefix (see --list-checkers)"
            )


def _gh_escape(text: str, properties: bool = False) -> str:
    """Escape data for a GitHub Actions workflow command."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if properties:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def _print_github(result: RunResult) -> None:
    """One ``::error`` workflow command per finding: the lint job's log
    lines become inline PR annotations."""
    for v in result.violations:
        print(
            f"::error file={_gh_escape(v.path, properties=True)},"
            f"line={v.line},col={v.col},"
            f"title={_gh_escape(v.code, properties=True)}"
            f"::{_gh_escape(v.message)}"
        )


def _sarif_result(v: Violation) -> Dict[str, Any]:
    return {
        "ruleId": v.code,
        "level": "error",
        "message": {"text": v.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {"startLine": v.line, "startColumn": v.col},
                }
            }
        ],
    }


def _sarif_payload(result: RunResult) -> Dict[str, Any]:
    """Minimal SARIF 2.1.0 log: one run, rules from the catalog."""
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": (
                            "https://example.invalid/repro/docs/"
                            "static_analysis.md"
                        ),
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {"text": description},
                            }
                            for code, description in catalog().items()
                        ],
                    }
                },
                "results": [_sarif_result(v) for v in result.violations],
            }
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static analysis (simlint): determinism, "
        "scheduler concurrency, hot-path hygiene and numpy dtype/stability "
        "hygiene.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH", help="files or directories to check"
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        dest="output_format",
        help="output format: text (default), json, github (workflow-"
        "command annotations), sarif (SARIF 2.1.0 on stdout)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated codes or family prefixes to keep "
        "(e.g. RPR06,RPR040)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated codes or family prefixes to drop",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print the error-code catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_checkers:
        for code, description in catalog().items():
            print(f"{code}  {description}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src tests)")

    select = _code_list(args.select)
    ignore = _code_list(args.ignore)
    _validate_prefixes(parser, "--select", select)
    _validate_prefixes(parser, "--ignore", ignore)

    try:
        result = run(args.paths, all_checkers(), select=select, ignore=ignore)
    except FileNotFoundError as exc:
        print(f"analysis: {exc}", file=sys.stderr)
        return 2

    for error in result.errors:
        print(f"analysis: {error}", file=sys.stderr)

    if args.output_format == "json":
        print(
            json.dumps(
                {
                    "files_checked": result.files_checked,
                    "violations": [v.to_dict() for v in result.violations],
                    "errors": result.errors,
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.output_format == "sarif":
        print(json.dumps(_sarif_payload(result), indent=2, sort_keys=True))
    else:
        if args.output_format == "github":
            _print_github(result)
        else:
            for violation in result.violations:
                print(violation.format())
        verdict = "FAIL" if result.violations or result.errors else "OK"
        print(
            f"analysis: {verdict} — {len(result.violations)} violation(s) in "
            f"{result.files_checked} file(s)",
            file=sys.stderr,
        )

    if result.errors:
        return 2
    return 1 if result.violations else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
