"""Exact rationals: parsing, printing and square roots.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator, total order).  A Gaussian rational is a (re, im) pair of them
wherever one is needed; no module computes in Q(i) through a class.
"""

from __future__ import annotations

import math
from fractions import Fraction

def rat_from_str(s: str) -> Fraction:
    """Parse a rational serialized as "p" or "p/q"; anything but a str is a TypeError."""
    if not isinstance(s, str):
        raise TypeError(f'a rational is a string "p" or "p/q", got {s!r}')
    return Fraction(s)


def rat_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def perfect_square_root(x: Fraction) -> Fraction:
    """Exact square root of a rational that must be a perfect square.

    Skew-form determinants are squares by construction, so a non-square
    input signals an internal inconsistency rather than bad user data.
    """
    if x < 0:
        raise ValueError("negative input to perfect_square_root")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ArithmeticError(f"{x} is not the square of a rational")
    return Fraction(rn, rd)
