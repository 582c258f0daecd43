"""Exception hierarchy for the Rcast reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate unchanged.
"""

from __future__ import annotations

import math
import operator
from typing import Any, NamedTuple


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulation kernel was driven into an invalid state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class ConfigurationError(ReproError):
    """A scenario, node stack or protocol was configured inconsistently."""


class ChannelError(ReproError):
    """The radio channel was asked to do something physically meaningless."""


class RoutingError(ReproError):
    """A routing-layer invariant was violated (malformed route, bad index)."""


class MacError(ReproError):
    """A MAC-layer invariant was violated (bad frame, impossible state)."""


class FieldRange(NamedTuple):
    """One row of a field table: a value must satisfy ``lo < x < hi``, a
    ``*_closed`` flag admitting that bound (the default ``hi`` makes the
    field finite); an ``integer`` field must also be an integer (numpy
    integers pass; NaN, infinity and 2.5 do not)."""

    lo: float
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False
    integer: bool = False


def check_field(name: str, value: Any, row: FieldRange) -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``value``
    lies in ``row``.  NaN-safe: NaN fails every comparison."""
    lo, hi, lo_closed, hi_closed, integer = row
    try:
        if integer:
            operator.index(value)
        ok = ((lo <= value if lo_closed else lo < value)
              and (value <= hi if hi_closed else value < hi))
    except TypeError:  # not a number at all
        ok = False
    if not ok:
        bounds = (f"{'>=' if lo_closed else '>'} {lo}" if hi == math.inf
                  else f"in {'[' if lo_closed else '('}{lo}, {hi}"
                       f"{']' if hi_closed else ')'}")
        raise ConfigurationError(
            f"{name} must be a finite {'integer' if integer else 'number'} "
            f"{bounds}, got {value!r}")
