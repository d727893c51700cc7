# repro-analysis-scope: src obs
"""Failing fixture for obs-schema: RPR030, RPR031."""

REQUIRED_FIELDS = {
    "run_start": ("params",),
    "orphan_event": (),  # RPR031: never emitted
}

EVENT_TYPES = frozenset(REQUIRED_FIELDS)


def emit_all(log) -> None:
    log.emit("run_start", params={})
    log.emit("mystery_event", x=1)  # RPR030: not in the schema
