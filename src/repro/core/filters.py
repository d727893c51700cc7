"""The four conflict filters of Section 3.

With the conflict bit stored per cache line, a direct-mapped cache gives
four ways to ask "is this miss event a conflict event?" about the pair
(new missing line, line it evicts):

* ``IN_CONFLICT``   — the *evicted* line originally came in as a conflict
  miss (reads the evicted line's conflict bit; requires the per-line bits).
* ``OUT_CONFLICT``  — the evicted line is being forced out *by* a conflict
  miss (reads only the new miss's MCT classification; needs no extra bits —
  this is why the paper defaults to it when results are similar).
* ``AND_CONFLICT``  — both of the above.
* ``OR_CONFLICT``   — either of the above (the most liberal identification
  of conflict misses).

Applications use the filters in two polarities: victim-style mechanisms
*select* conflict events, prefetch-style mechanisms *suppress* them.  Both
call :meth:`ConflictFilter.matches`; the caller chooses what to do with the
boolean.
"""

from __future__ import annotations

from enum import Enum


class ConflictFilter(Enum):
    """Filter algebra over (new-miss classification, evicted conflict bit)."""

    IN_CONFLICT = "in-conflict"
    OUT_CONFLICT = "out-conflict"
    AND_CONFLICT = "and-conflict"
    OR_CONFLICT = "or-conflict"

    def matches(self, *, new_is_conflict: bool, evicted_conflict_bit: bool) -> bool:
        """True when this filter labels the miss event a conflict event.

        Parameters
        ----------
        new_is_conflict:
            The MCT classification of the incoming miss.
        evicted_conflict_bit:
            The conflict bit of the line being displaced; pass False when
            the fill landed in an empty way (nothing was evicted, so no
            line "came in as a conflict miss").
        """
        if self is ConflictFilter.IN_CONFLICT:
            return evicted_conflict_bit
        if self is ConflictFilter.OUT_CONFLICT:
            return new_is_conflict
        if self is ConflictFilter.AND_CONFLICT:
            return new_is_conflict and evicted_conflict_bit
        return new_is_conflict or evicted_conflict_bit

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The paper's default when policies behave similarly (no per-line bits).
DEFAULT_FILTER = ConflictFilter.OUT_CONFLICT

#: The most liberal filter — used by the victim-cache policies of §5.1.
MOST_LIBERAL_FILTER = ConflictFilter.OR_CONFLICT

ALL_FILTERS = (
    ConflictFilter.IN_CONFLICT,
    ConflictFilter.OUT_CONFLICT,
    ConflictFilter.AND_CONFLICT,
    ConflictFilter.OR_CONFLICT,
)


def parse_filter(name: str) -> ConflictFilter:
    """Look a filter up by its paper name (``"or-conflict"`` etc.)."""
    for f in ConflictFilter:
        if f.value == name:
            return f
    raise ValueError(
        f"unknown conflict filter {name!r}; expected one of "
        f"{[f.value for f in ConflictFilter]}"
    )
