# repro-analysis-scope: src
"""Passing fixture for stats-completeness."""

from dataclasses import dataclass


@dataclass
class GoodStats:
    hits: int = 0
    misses: int = 0


@dataclass
class LatencyConfig:
    """Not stats-like (no Stats suffix): float knobs are fine."""

    scale: float = 0.0
    offset: float = 0.0
