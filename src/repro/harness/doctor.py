"""Crash recovery for run directories: ``python -m repro.harness.doctor``.

Usage::

    python -m repro.harness.doctor RUN_DIR            # diagnose + repair
    python -m repro.harness.doctor RUN_DIR --dry-run  # diagnose only
    python -m repro.harness.doctor RUN_DIR --json     # machine-readable

A run that died mid-flight — power cut, OOM kill, a fault injected by
:mod:`repro.faults` — leaves a run directory in one of a small number of
states, every one of which this tool can classify and (except the last)
repair without re-running anything:

* stray ``*.tmp`` files from interrupted atomic writes — deleted;
* a torn ``manifest.json`` — restored from ``manifest.json.bak`` (the
  dual-slot protocol in :mod:`repro.harness.checkpoint`);
* torn or checksum-failing cell artifacts — moved to ``quarantine/``
  (never deleted: they are evidence), their registry entries dropped;
* valid artifacts the manifest does not know about (crash between the
  artifact write and the checksum registration) — re-registered;
* a torn ``events.jsonl`` tail — truncated; unparseable lines, lines
  holding bytes that are not UTF-8 (named by byte offset) and events
  from simulations that never closed (the killed attempt's remnants) —
  dropped, preserving every surviving line's exact bytes;
* a missing or torn ``report.json`` — rebuilt from the manifest's cell
  plan plus the surviving artifacts' origin stubs.

The verdict is ``CLEAN`` (nothing to do), ``REPAIRED`` (or
``REPAIRABLE`` under ``--dry-run``), or ``CORRUPT`` — neither
``manifest.json`` nor its backup holds the schema and valid params a
resume needs, so the directory cannot be resumed, the doctor leaves it
as it found it, and the campaign must start over.  After a successful
repair, ``--resume`` re-runs exactly the lost cells and the recovered
directory converges byte-for-byte with a fault-free run (the
crash-matrix tests assert this end to end).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, cast

from repro.experiments.base import ExperimentParams
from repro.harness.checkpoint import (
    SCHEMA_VERSION,
    RunDirectory,
    _dump,
    verify_artifact_text,
)
from repro.harness.durable import atomic_write_text
from repro.harness.report import (
    REPORT_SCHEMA_VERSION,
    CellReport,
    CellStatus,
    RunReport,
)
from repro.obs.validate import is_utf8, not_utf8, read_events, split_torn_tail

VERDICT_CLEAN = "CLEAN"
VERDICT_REPAIRED = "REPAIRED"
VERDICT_REPAIRABLE = "REPAIRABLE"
VERDICT_CORRUPT = "CORRUPT"


@dataclass
class Diagnosis:
    """Everything one doctor pass found and (unless dry) fixed."""

    run_dir: str
    verdict: str = VERDICT_CLEAN
    repairs: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    cells_intact: List[str] = field(default_factory=list)
    cells_lost: List[str] = field(default_factory=list)

    def repair(self, message: str) -> None:
        self.repairs.append(message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_dir": self.run_dir,
            "verdict": self.verdict,
            "repairs": self.repairs,
            "problems": self.problems,
            "cells_intact": self.cells_intact,
            "cells_lost": self.cells_lost,
        }

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_CORRUPT:
            return 2
        if self.verdict == VERDICT_REPAIRABLE:
            return 1
        return 0


def _load_json(path: Path, diag: Diagnosis) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        diag.problems.append(f"{path.name}: {not_utf8(exc)}")
        return None
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return cast(Dict[str, object], payload)


def _resumable(doc: Optional[Dict[str, object]]) -> bool:
    """True when :meth:`RunDirectory.prepare` could resume from ``doc``.

    That takes the current schema and the params of a valid
    :class:`ExperimentParams`, which ``prepare`` compares with its own.
    """
    if doc is None or doc.get("schema") != SCHEMA_VERSION:
        return False
    params = doc.get("params")
    if not isinstance(params, dict):
        return False
    try:
        return ExperimentParams.from_dict(params).to_dict() == params
    except (KeyError, TypeError, ValueError):
        return False


def _quarantine(run: RunDirectory, path: Path, apply: bool) -> Path:
    """Move ``path`` into ``quarantine/`` without clobbering anything."""
    target = run.quarantine_path / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = run.quarantine_path / f"{path.name}.{suffix}"
    if apply:
        run.quarantine_path.mkdir(parents=True, exist_ok=True)
        path.rename(target)
    return target


def _remove_tmp_files(run: RunDirectory, diag: Diagnosis, apply: bool) -> None:
    for tmp in sorted(run.path.glob("*.tmp")) + sorted(
        run.cell_dir().glob("*.tmp") if run.cell_dir().is_dir() else []
    ):
        if apply:
            tmp.unlink()
        diag.repair(f"removed stray temp file {tmp.name}")


def _recover_manifest(
    run: RunDirectory, diag: Diagnosis, apply: bool
) -> Optional[Dict[str, object]]:
    """A usable manifest document, repairing from backup if needed.

    A manifest no backup can replace is left where it is: the directory
    is corrupt, and the doctor writes nothing there.
    """
    current = (
        _load_json(run.manifest_path, diag)
        if run.manifest_path.exists()
        else None
    )
    if _resumable(current):
        return current
    backup = (
        _load_json(run.manifest_backup_path, diag)
        if run.manifest_backup_path.exists()
        else None
    )
    if run.manifest_path.exists():
        diag.problems.append(
            "manifest.json is torn, has an unknown schema or lacks valid params"
        )
    else:
        diag.problems.append("manifest.json is missing")
    if _resumable(backup):
        if run.manifest_path.exists():
            quarantined = _quarantine(run, run.manifest_path, apply)
            diag.repair(f"quarantined bad manifest as {quarantined.name}")
        if apply:
            atomic_write_text(run.manifest_path, _dump(backup))
        diag.repair("restored manifest.json from manifest.json.bak")
        return backup
    diag.problems.append(
        "no usable manifest.json.bak either — the run directory cannot "
        "be resumed; start a fresh run"
    )
    return None


def _audit_cells(
    run: RunDirectory,
    manifest: Dict[str, object],
    diag: Diagnosis,
    apply: bool,
) -> bool:
    """Quarantine bad artifacts, sync the checksum registry.

    Returns True when the manifest document was modified.
    """
    registry_obj = manifest.get("checksums")
    registry: Dict[str, object] = (
        dict(cast(Dict[str, object], registry_obj))
        if isinstance(registry_obj, dict)
        else {}
    )
    changed = not isinstance(registry_obj, dict)
    surviving: Dict[str, str] = {}
    if run.cell_dir().is_dir():
        for path in sorted(run.cell_dir().glob("*.json")):
            payload: Optional[Dict[str, object]]
            problem: Optional[str]
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:  # pragma: no cover - unreadable file
                diag.problems.append(f"cells/{path.name}: unreadable ({exc})")
                continue
            except UnicodeDecodeError as exc:
                payload, problem = None, not_utf8(exc)
            else:
                payload, problem = verify_artifact_text(text)
            if payload is None or problem is None and "cell" not in payload:
                problem = problem or "artifact carries no cell id"
            if problem is not None:
                diag.problems.append(f"cells/{path.name}: {problem}")
                quarantined = _quarantine(run, path, apply)
                diag.repair(
                    f"quarantined cells/{path.name} as "
                    f"quarantine/{quarantined.name}"
                )
                continue
            assert payload is not None
            cell_id = str(payload["cell"])
            surviving[cell_id] = str(payload.get("checksum", ""))
    for cell_id, checksum in sorted(surviving.items()):
        if registry.get(cell_id) != checksum:
            if cell_id in registry:
                diag.problems.append(
                    f"manifest checksum for {cell_id} disagrees with the "
                    "(internally consistent) artifact"
                )
            registry[cell_id] = checksum
            changed = True
            diag.repair(f"registered checksum for {cell_id} in manifest")
    for cell_id in sorted(set(registry) - set(surviving)):
        del registry[cell_id]
        changed = True
        diag.repair(
            f"dropped manifest checksum for {cell_id} (no surviving artifact)"
        )
    manifest["checksums"] = registry

    plan_obj = manifest.get("cells")
    plan = (
        [str(c) for c in cast(List[object], plan_obj)]
        if isinstance(plan_obj, list)
        else []
    )
    if not plan:
        plan = sorted(surviving)
    diag.cells_intact = [c for c in plan if c in surviving]
    diag.cells_lost = [c for c in plan if c not in surviving]
    diag.cells_intact += sorted(set(surviving) - set(plan))
    return changed


def _recover_suffix(line: str) -> Optional[str]:
    """The longest parseable JSON-object suffix of a corrupt line, if any.

    Only the true fragment/event boundary parses: ``json.loads`` rejects
    trailing garbage, so scanning start candidates cannot mis-split.
    """
    for index in range(1, len(line)):
        if line[index] != "{":
            continue
        candidate = line[index:]
        try:
            if isinstance(json.loads(candidate), dict):
                return candidate
        except json.JSONDecodeError:
            continue
    return None


def _sim_scope(event: Dict[str, object]) -> Optional[str]:
    """The sim/pass id an event belongs to, or None for run-level events."""
    sim = event.get("sim")
    return str(sim) if isinstance(sim, str) else None


def _repair_events(run: RunDirectory, diag: Diagnosis, apply: bool) -> None:
    events_path = run.path / "events.jsonl"
    if not events_path.exists():
        return
    text, undecodable = read_events(events_path)
    if undecodable:
        diag.problems.append(f"events.jsonl: {undecodable}")
    lines, torn_warning = split_torn_tail(text)
    if torn_warning:
        diag.problems.append(f"events.jsonl: {torn_warning.split(' (')[0]}")
        diag.repair("truncated torn final line of events.jsonl")
    kept: List[str] = []
    parsed: List[Optional[Dict[str, object]]] = []
    dropped_unparseable = 0
    dropped_undecodable = 0
    recovered_suffixes = 0
    for line in lines:
        if not line.strip():
            continue
        if undecodable and not is_utf8(line):
            dropped_undecodable += 1
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            # A process torn mid-append leaves a partial line with no
            # newline; the next O_APPEND writer's (complete, innocent)
            # event then glues onto it.  Recover that suffix — dropping
            # it would lose a healthy sim's counters delta and break
            # reconciliation for a simulation that finished cleanly.
            suffix = _recover_suffix(line)
            dropped_unparseable += 1
            if suffix is not None:
                recovered_suffixes += 1
                kept.append(suffix)
                parsed.append(
                    cast(Dict[str, object], json.loads(suffix))
                )
            continue
        if not isinstance(event, dict):
            dropped_unparseable += 1
            continue
        kept.append(line)
        parsed.append(cast(Dict[str, object], event))
    if dropped_undecodable:
        diag.repair(
            f"dropped {dropped_undecodable} line(s) holding bytes that are "
            "not UTF-8"
        )
    if dropped_unparseable:
        diag.problems.append(
            f"events.jsonl: {dropped_unparseable} torn/unparseable "
            "line(s) mid-stream"
        )
        diag.repair(
            f"dropped {dropped_unparseable} torn fragment(s)"
            + (
                f", recovering {recovered_suffixes} complete event(s) "
                "glued to them"
                if recovered_suffixes
                else ""
            )
        )

    # Simulations and MRC passes a dead worker never closed: every event
    # of those ids is a remnant of the killed attempt — the resumed run
    # re-emits the whole bracket under a fresh sim id.
    opened: Set[str] = set()
    closed: Set[str] = set()
    for event in parsed:
        assert event is not None
        etype = event.get("type")
        sim = _sim_scope(event)
        if sim is None:
            continue
        if etype in ("sim_start", "mrc_start"):
            opened.add(sim)
        elif etype in ("sim_end", "mrc_end"):
            closed.add(sim)
    unclosed = opened - closed
    if unclosed:
        filtered = [
            line
            for line, event in zip(kept, parsed)
            if event is not None and _sim_scope(event) not in unclosed
        ]
        dropped = len(kept) - len(filtered)
        diag.problems.append(
            f"events.jsonl: {len(unclosed)} unclosed sim/mrc bracket(s) "
            f"from killed attempt(s)"
        )
        diag.repair(
            f"dropped {dropped} event(s) of {len(unclosed)} unclosed "
            f"sim/mrc bracket(s): {', '.join(sorted(unclosed))}"
        )
        kept = filtered

    repaired = "".join(line + "\n" for line in kept)
    if repaired != text and apply:
        atomic_write_text(events_path, repaired)


def _rebuild_report(
    run: RunDirectory,
    manifest: Dict[str, object],
    diag: Diagnosis,
    apply: bool,
) -> None:
    existing = (
        _load_json(run.report_path, diag) if run.report_path.exists() else None
    )
    if (
        existing is not None
        and existing.get("schema") == REPORT_SCHEMA_VERSION
        and not diag.cells_lost
    ):
        return  # a valid report over a complete cell set: nothing to do
    if existing is None and run.report_path.exists():
        diag.problems.append("report.json is torn")
    elif not run.report_path.exists():
        diag.problems.append("report.json is missing (run died before finalize)")
    # _recover_manifest returns only manifests with valid params.
    params = cast(Dict[str, object], manifest["params"])
    seed = cast(int, params["seed"])
    # Intact cells report their origin stub, as a resume would; lost
    # ones are SKIPPED with an error, which makes the report not ok.
    report = RunReport(params=params)
    for cell_id in diag.cells_intact:
        entry = run.load_checkpoint(cell_id)
        report.add(
            CellReport(
                cell_id,
                CellStatus.SKIPPED,
                attempts=0,
                seed=seed,
                origin_status=(
                    entry.status if entry is not None else CellStatus.OK.value
                ),
                origin_attempts=entry.attempts if entry is not None else 1,
            )
        )
    for cell_id in diag.cells_lost:
        report.add(
            CellReport(
                cell_id,
                CellStatus.SKIPPED,
                attempts=0,
                seed=seed,
                error="artifact lost in crash; re-run with --resume",
            )
        )
    if apply:
        run.save_report(report.to_dict())
    diag.repair(
        f"rebuilt report.json from {len(diag.cells_intact)} surviving "
        "checkpoint(s)"
    )


def diagnose(run_dir: Path, *, apply: bool = True) -> Diagnosis:
    """One full doctor pass over ``run_dir``; repairs unless ``apply=False``."""
    run = RunDirectory(run_dir)
    diag = Diagnosis(run_dir=str(run_dir))
    manifest = _recover_manifest(run, diag, apply)
    if manifest is None:
        diag.verdict = VERDICT_CORRUPT
        return diag
    _remove_tmp_files(run, diag, apply)
    manifest_changed = _audit_cells(run, manifest, diag, apply)
    if manifest_changed:
        if apply:
            atomic_write_text(run.manifest_path, _dump(manifest))
        diag.repair("rewrote manifest.json with the synced checksum registry")
    _repair_events(run, diag, apply)
    _rebuild_report(run, manifest, diag, apply)
    if diag.repairs:
        diag.verdict = VERDICT_REPAIRED if apply else VERDICT_REPAIRABLE
    return diag


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.doctor",
        description="Diagnose and repair a crashed harness run directory "
        "so --resume can finish the campaign.",
    )
    parser.add_argument("run_dir", metavar="RUN_DIR", help="run directory to doctor")
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be repaired without touching anything",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the diagnosis as a JSON document on stdout",
    )
    args = parser.parse_args(argv)

    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        what = "not a directory" if run_dir.exists() else "no such run directory"
        print(f"doctor: {what}: {run_dir}", file=sys.stderr)
        return 2
    diag = diagnose(run_dir, apply=not args.dry_run)

    if args.json:
        print(json.dumps(diag.to_dict(), sort_keys=True, indent=2))
        return diag.exit_code
    for problem in diag.problems:
        print(f"doctor: problem: {problem}")
    for repair in diag.repairs:
        verb = "would repair" if args.dry_run else "repaired"
        print(f"doctor: {verb}: {repair}")
    print(
        f"doctor: {diag.verdict} — {len(diag.cells_intact)} cell(s) intact, "
        f"{len(diag.cells_lost)} lost"
        + (f" ({', '.join(diag.cells_lost)})" if diag.cells_lost else "")
    )
    if diag.verdict == VERDICT_CORRUPT:
        print(
            "doctor: not resumable — manifest unrecoverable; start a fresh run",
            file=sys.stderr,
        )
    elif diag.cells_lost:
        print(
            "doctor: resume with the same command plus --resume to re-run "
            "the lost cell(s)"
        )
    return diag.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
