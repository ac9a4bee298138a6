"""Helpers shared by the test modules."""

from fractions import Fraction


def random_rational(rng) -> Fraction:
    """Random nonzero rational with numerator and denominator drawn from [-9, 9] \\ {0}."""
    nonzero = [k for k in range(-9, 10) if k != 0]
    return Fraction(rng.choice(nonzero), rng.choice(nonzero))
