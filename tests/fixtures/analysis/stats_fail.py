# repro-analysis-scope: src
"""Failing fixture for stats-completeness: RPR003."""

from dataclasses import dataclass


@dataclass
class BrokenStats:
    """No reset() or merge() of its own: still visited."""

    hits: int = 0
    misses: int = 0
    latency_sum: float = 0.0  # RPR003: float counter
