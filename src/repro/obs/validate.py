"""Validate (and reconcile) an ``events.jsonl`` stream.

Usage::

    python -m repro.obs.validate out/events.jsonl
    python -m repro.obs.validate out/events.jsonl --reconcile

Validation checks every line parses, carries the supported ``schema``
version, a known ``type`` and that type's required fields.
``--reconcile`` additionally replays each simulation's ``counters``
deltas and requires the sum to reproduce the ``sim_end`` final snapshot
*exactly* — the property the whole metrics layer is built around.  CI
runs both on every ``--metrics`` sweep; exit status is non-zero on any
violation, with one line per problem on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, cast

from repro.obs.events import EVENT_SCHEMA, REQUIRED_FIELDS
from repro.obs.metrics import Number, reconcile


def split_torn_tail(text: str) -> Tuple[List[str], Optional[str]]:
    """Split an events stream, dropping a torn final line if present.

    A crash (power cut, SIGKILL, injected fault) during an append leaves
    a partial line with no trailing newline at the end of the file; that
    tail tells you how the run *died*, not that the stream is bad, so it
    is dropped with a warning rather than failing validation.  Anything
    unparseable elsewhere — or even an unparseable final line that *is*
    newline-terminated — is real corruption and stays in the line list
    for :func:`validate_lines` to reject.
    """
    if not text or text.endswith("\n"):
        return text.splitlines(), None
    lines = text.splitlines()
    tail = lines[-1]
    try:
        json.loads(tail)
    except json.JSONDecodeError:
        return (
            lines[:-1],
            f"torn final line dropped ({len(tail)} byte(s), "
            "no trailing newline — the emitting process died mid-append)",
        )
    # Parseable but unterminated: the crash landed exactly between the
    # payload and the newline; the event itself is intact, keep it.
    return lines, None


def validate_lines(
    lines: Iterable[str],
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Parse and schema-check event lines; returns (events, problems)."""
    events: List[Dict[str, object]] = []
    problems: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(event, dict):
            problems.append(f"line {lineno}: event is not an object")
            continue
        if event.get("schema") != EVENT_SCHEMA:
            problems.append(
                f"line {lineno}: schema {event.get('schema')!r} != {EVENT_SCHEMA}"
            )
            continue
        etype = event.get("type")
        if etype not in REQUIRED_FIELDS:
            problems.append(
                f"line {lineno}: event type {etype!r} absent from schema"
            )
            continue
        missing = [f for f in REQUIRED_FIELDS[etype] if f not in event]
        if missing:
            problems.append(
                f"line {lineno}: {etype} event missing field(s) "
                f"{', '.join(missing)}"
            )
            continue
        events.append(event)
    return events, problems


def reconcile_events(events: Iterable[Dict[str, object]]) -> Tuple[int, List[str]]:
    """Replay every simulation's deltas against its final snapshot.

    Returns (streams checked, problems).  A ``counters`` or
    ``sim_end`` event for a sim with no ``sim_start``, or a sim that
    never ends, is reported too — a truncated stream should not validate
    silently.  Service sessions reconcile structurally the same way MRC
    passes do: every ``session_open`` must be retired by a
    ``session_close`` whose ``batches``/``answers`` totals equal the
    ``batch``/``answer`` events actually in the stream — a service run
    that died mid-session (or silently dropped an answer) is rejected,
    never passed.
    """
    started: Dict[str, Dict[str, object]] = {}
    deltas: Dict[str, List[Mapping[str, Number]]] = defaultdict(list)
    finals: Dict[str, Mapping[str, Number]] = {}
    mrc_started: Dict[str, Dict[str, object]] = {}
    mrc_points: Dict[str, int] = defaultdict(int)
    mrc_ends: Dict[str, Dict[str, object]] = {}
    sess_opened: Dict[str, Dict[str, object]] = {}
    sess_batches: Dict[str, int] = defaultdict(int)
    sess_answers: Dict[str, int] = defaultdict(int)
    sess_closed: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    for event in events:
        etype = event.get("type")
        if etype == "sim_start":
            started[str(event["sim"])] = event
        elif etype == "counters":
            deltas[str(event["sim"])].append(
                cast("Mapping[str, Number]", event["delta"])
            )
        elif etype == "sim_end":
            finals[str(event["sim"])] = cast(
                "Mapping[str, Number]", event["final"]
            )
        elif etype == "mrc_start":
            mrc_started[str(event["sim"])] = event
        elif etype == "mrc_point":
            mrc_points[str(event["sim"])] += 1
        elif etype == "mrc_end":
            mrc_ends[str(event["sim"])] = event
        elif etype == "session_open":
            sess_opened[str(event["session"])] = event
        elif etype == "batch":
            sess_batches[str(event["session"])] += 1
        elif etype == "answer":
            sess_answers[str(event["session"])] += 1
        elif etype == "session_close":
            sess_closed[str(event["session"])] = event
    for sim in sorted(set(deltas) | set(finals)):
        if sim not in started:
            problems.append(f"sim {sim}: counters/sim_end without sim_start")
    for sim, final in sorted(finals.items()):
        for problem in reconcile(deltas.get(sim, []), final):
            problems.append(f"sim {sim}: {problem}")
    for sim in sorted(set(started) - set(finals)):
        problems.append(f"sim {sim}: sim_start without sim_end (truncated run?)")
    # MRC passes reconcile structurally: every pass closed, and the
    # closing point count equal to the points actually emitted.
    for sim in sorted(set(mrc_points) | set(mrc_ends)):
        if sim not in mrc_started:
            problems.append(f"mrc {sim}: mrc_point/mrc_end without mrc_start")
    for sim in sorted(set(mrc_started) - set(mrc_ends)):
        problems.append(f"mrc {sim}: mrc_start without mrc_end (truncated run?)")
    for sim, end in sorted(mrc_ends.items()):
        if end["points"] != mrc_points.get(sim, 0):
            problems.append(
                f"mrc {sim}: mrc_end claims {end['points']} point(s), "
                f"stream has {mrc_points.get(sim, 0)}"
            )
    # Service sessions: every open retired, every close accounted, and
    # the closing totals equal to the events actually present.
    for sess in sorted(
        (set(sess_batches) | set(sess_answers) | set(sess_closed))
        - set(sess_opened)
    ):
        problems.append(
            f"session {sess}: batch/answer/session_close without session_open"
        )
    for sess in sorted(set(sess_opened) - set(sess_closed)):
        problems.append(
            f"session {sess}: session_open without session_close "
            f"(service died mid-session?)"
        )
    for sess, close in sorted(sess_closed.items()):
        if sess not in sess_opened:
            continue  # already reported above
        if close["batches"] != sess_batches.get(sess, 0):
            problems.append(
                f"session {sess}: session_close claims "
                f"{close['batches']} batch(es), stream has "
                f"{sess_batches.get(sess, 0)}"
            )
        if close["answers"] != sess_answers.get(sess, 0):
            problems.append(
                f"session {sess}: session_close claims "
                f"{close['answers']} answer(s), stream has "
                f"{sess_answers.get(sess, 0)}"
            )
    return len(finals) + len(mrc_ends) + len(sess_closed), problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Schema-validate an events.jsonl stream; optionally "
        "replay counter deltas against each simulation's final snapshot.",
    )
    parser.add_argument("events", metavar="EVENTS_JSONL", help="path to events.jsonl")
    parser.add_argument(
        "--reconcile",
        action="store_true",
        help="also require per-sim counter deltas to sum to the final snapshot",
    )
    args = parser.parse_args(argv)

    path = Path(args.events)
    if not path.is_file():
        print(f"validate: no such file: {path}", file=sys.stderr)
        return 2

    lines, torn_warning = split_torn_tail(path.read_text())
    if torn_warning:
        print(f"validate: warning: {torn_warning}", file=sys.stderr)
    events, problems = validate_lines(lines)
    sims_checked = 0
    if args.reconcile and not problems:
        sims_checked, reconcile_problems = reconcile_events(events)
        problems.extend(reconcile_problems)

    for problem in problems:
        print(f"validate: {problem}", file=sys.stderr)
    if problems:
        print(f"validate: FAIL ({len(problems)} problem(s))", file=sys.stderr)
        return 1

    by_type = Counter(e["type"] for e in events)
    summary = ", ".join(f"{t}={n}" for t, n in sorted(by_type.items()))
    print(f"validate: OK — {len(events)} events ({summary or 'empty'})", end="")
    if args.reconcile:
        print(f"; {sims_checked} sim(s) reconciled exactly")
    else:
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
