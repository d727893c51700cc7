"""Cache substrate: geometry, tag stores, replacement, statistics."""

from repro.cache.fully_assoc import FullyAssociativeLRU
from repro.cache.geometry import AddressParts, CacheGeometry
from repro.cache.line import BufferRole, CacheLine, EvictedLine
from repro.cache.pseudo_assoc import (
    PacHit,
    PacResult,
    PacVariant,
    PseudoAssociativeCache,
)
from repro.cache.replacement import LRUReplacement, ReplacementPolicy
from repro.cache.set_assoc import AccessResult, SetAssociativeCache
from repro.cache.stats import (
    BufferStats,
    CacheStats,
    ClassificationStats,
    SystemStats,
    TimingStats,
)

__all__ = [
    "AccessResult",
    "AddressParts",
    "BufferRole",
    "BufferStats",
    "CacheGeometry",
    "CacheLine",
    "CacheStats",
    "ClassificationStats",
    "EvictedLine",
    "FullyAssociativeLRU",
    "LRUReplacement",
    "PacHit",
    "PacResult",
    "PacVariant",
    "PseudoAssociativeCache",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "SystemStats",
    "TimingStats",
]
