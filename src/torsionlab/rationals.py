"""Exact rational scalars with a +infinity sentinel.

Valuations and truncation levels are exact rationals except for the two
places where +infinity is meaningful: the valuation of zero and the
truncation level of an exact element.  math.inf interoperates cleanly with
Fraction (ordering, min, addition), so levels are represented as
``Fraction | float`` where the float is only ever ``math.inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITE = math.inf

Level = Fraction | float


def is_infinite(value: Level) -> bool:
    return isinstance(value, float) and math.isinf(value)


def as_level(value) -> Level:
    """Coerce ints, strings, Fractions, or inf into a Level."""
    if isinstance(value, float):
        if math.isinf(value) and value > 0:
            return INFINITE
        raise ValueError(f"not an exact level: {value!r}")
    if isinstance(value, str) and value.strip() in ("inf", "+inf", "infinity"):
        return INFINITE
    return Fraction(value)


def rational(value) -> Fraction:
    """Parse an exact rational given as int, Fraction, or 'p/q' string;
    a float or a bool is refused."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"refusing {value!r}; pass an exact 'p/q' string")
    return Fraction(value)


def format_level(value: Level) -> str:
    """Render a level as 'p/q' or 'inf'; inverse of as_level."""
    if is_infinite(value):
        return "inf"
    return str(Fraction(value))
