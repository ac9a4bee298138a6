"""Exact rational scalars and the p/q string format used throughout the JSON interfaces."""

from __future__ import annotations

import re
from fractions import Fraction

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


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as "p" or "p/q", always in lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def random_rational(rng) -> Fraction:
    """Random nonzero rational with numerator and denominator drawn from [-9, 9] \\ {0}."""
    nonzero = [k for k in range(-9, 10) if k != 0]
    return Fraction(rng.choice(nonzero), rng.choice(nonzero))
