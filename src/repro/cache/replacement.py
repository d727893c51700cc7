"""Replacement policies for set-associative structures.

Policies are small strategy objects: given the lines of one set, pick the
way to evict.  They are deliberately stateless — all the state they need
(``last_touch``, the conflict bit) lives on the
:class:`~repro.cache.line.CacheLine` itself, so one policy instance can
serve every set of every cache.

The paper's caches use LRU; the §5.6 extension's conflict-biased policy
(:mod:`repro.extensions.assoc_replacement`) is the other implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.cache.line import CacheLine


class ReplacementPolicy(ABC):
    """Strategy interface: choose a victim way within one set."""

    @abstractmethod
    def choose_victim(self, lines: Sequence[CacheLine]) -> int:
        """Return the way index to evict.

        Invalid ways are always preferred; implementations only need to
        order the valid ones.  ``lines`` is never empty.
        """

    @staticmethod
    def first_invalid(lines: Sequence[CacheLine]) -> int | None:
        """Index of the first invalid way, or None if the set is full."""
        for way, line in enumerate(lines):
            if not line.valid:
                return way
        return None

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Replacement", "").lower()


class LRUReplacement(ReplacementPolicy):
    """Evict the least-recently-used valid line."""

    def choose_victim(self, lines: Sequence[CacheLine]) -> int:
        empty = self.first_invalid(lines)
        if empty is not None:
            return empty
        return min(range(len(lines)), key=lambda w: lines[w].last_touch)
