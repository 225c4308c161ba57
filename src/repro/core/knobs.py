"""The one rule table every front door checks its knobs against.

A count is an int that is not a bool (``True`` is not one machine), a flag
is a bool, and a real-valued knob is a real number that is neither a bool
nor NaN (every comparison with NaN is false, so a NaN bound or deadline
never trips).  :func:`check` applies one rule, raises the caller's own
typed error with one message shape, and returns the value as a plain
``int`` / ``float`` / ``bool``, so a NumPy scalar accepted at a front door
never reaches a cache key or the JSON wire codec.

This module imports nothing from :mod:`repro`: every tier imports it.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple


class Rule(NamedTuple):
    """What a knob must be: an instance of ``kind`` (a bool only when
    ``plain`` is ``bool``), returned as ``plain``; ``None`` passes when
    ``optional``, infinity unless ``finite``."""

    expected: str
    kind: type
    plain: type
    optional: bool = False
    finite: bool = False


INT = Rule("an int", numbers.Integral, int)
OPTIONAL_INT = INT._replace(optional=True)
REAL = Rule("a real number other than NaN", numbers.Real, float)
FINITE = Rule("a finite real number", numbers.Real, float, finite=True)
OPTIONAL_FINITE = FINITE._replace(optional=True)
BOOL = Rule("a bool", bool, bool)
OPTIONAL_BOOL = BOOL._replace(optional=True)


def check(value: object, rule: Rule, name: str, error: type[Exception], *,
          at_least: float | None = None):
    """``value`` as ``rule.plain`` if it keeps ``rule`` (and is at least
    ``at_least``), else ``error("{name} must be {expected}[ >= at_least][
    or None], got {value!r}")``."""
    if value is None and rule.optional:
        return None
    if type(value) is rule.plain:
        plain = value
    elif isinstance(value, rule.kind) and not isinstance(value, bool):
        try:
            plain = rule.plain(value)
        except OverflowError:  # an int no float can hold
            plain = None
    else:
        plain = None
    if plain is not None and plain == plain \
            and (not rule.finite or math.isfinite(plain)) \
            and (at_least is None or plain >= at_least):
        return plain
    bound = "" if at_least is None else f" >= {at_least}"
    unset = " or None" if rule.optional else ""
    raise error(f"{name} must be {rule.expected}{bound}{unset}, got {value!r}")
