"""Exact rational scalars and the p/q string format used throughout the JSON interfaces."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_P_OR_P_OVER_Q = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def parse_scalar(text: str) -> Fraction:
    """Parse "p" or "p/q" (decimal digits, q nonzero) into a reduced Fraction.

    Anything else, such as "0.5", "1e3" or "1/0", raises ValueError; a value
    that is not a string raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError("expected a rational as a string, got %r" % (text,))
    text = text.strip()
    if not _P_OR_P_OVER_Q.fullmatch(text):
        raise ValueError("Invalid literal for Fraction: %r" % text)
    return Fraction(text)


def format_scalar(x: Fraction | int) -> str:
    """Render a Fraction or an int as "p" or "p/q", always in lowest terms."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class NonIntegralError(ArithmeticError):
    """A rational scaled by a common denominator was not an integer."""


def common_denominator(values) -> int:
    """The lcm of the denominators of rational values; 1 for none."""
    return lcm(*(v.denominator for v in values))


def scaled_to_int(entries, d: int) -> dict:
    """{key: d * v} with int values for a dict of rationals; raises
    NonIntegralError where d * v is not an integer, and never rounds."""
    out = {}
    for key, v in entries.items():
        q, r = divmod(d, v.denominator)
        if r:
            raise NonIntegralError("%s times %s is not an integer" % (d, format_scalar(v)))
        out[key] = v.numerator * q
    return out

