# repro-analysis-scope: src obs
"""Passing fixture for obs-schema: every schema name is emitted."""

from typing import Dict, Tuple

REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run_start": ("params",),
    "run_end": ("ok",),
}

EVENT_TYPES = frozenset(REQUIRED_FIELDS)


def emit_all(log) -> None:
    log.emit("run_start", params={})
    log.emit("run_end", ok=True)
