"""argparse ``type=`` converters that reuse the library's own checks.

A flag's value is checked as it is parsed, so bad input exits 2 with
argparse's ``argument --flag: ...`` usage error naming the flag, instead
of a traceback from deep inside the run.  The bounds stay where the
library defines them (a config's ``__post_init__``, a constructor's
argument check); a converter only moves the point where they fire.
"""

from __future__ import annotations

import argparse
from typing import Callable, TypeVar

_T = TypeVar("_T")


def checked(
    convert: Callable[[str], _T], check: Callable[[_T], object]
) -> Callable[[str], _T]:
    """Convert with ``convert``, then run ``check`` on the value.

    A ``ValueError`` from ``check`` becomes a usage error carrying its
    message.  One from ``convert`` keeps argparse's own wording
    ("invalid int value: 'abc'").
    """

    def parse(text: str) -> _T:
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = getattr(convert, "__name__", "value")
    return parse


def at_least(
    minimum: int, convert: Callable[[str], float] = int
) -> Callable[[str], float]:
    """A number flag that must be ``>= minimum`` (NaN never is): a count,
    a size, a seed, a duration."""

    def check(value: float) -> None:
        if not value >= minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")

    return checked(convert, check)
