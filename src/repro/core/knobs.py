"""The type rules front-door constructors check their knobs against.

A count is an int that is not a bool (``True`` is not one machine), and a
real-valued knob is a real number that is not a bool.  Each constructor
raises its own tier's typed error when a knob breaks the rule.
"""

from __future__ import annotations

import numbers


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
