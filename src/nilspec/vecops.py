"""Tuple-of-Fraction vector helpers shared across modules."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def vadd(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a) -> tuple:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vdot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def basis_vec(n: int, i: int) -> tuple:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def clear_denominators(xs) -> tuple:
    """(numerators, den): integers over the least common denominator of xs."""
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals], den


def clear_rows(rows) -> tuple:
    """(integer rows, den): a rational matrix over its least common denominator."""
    rows = [list(r) for r in rows]
    nums, den = clear_denominators(x for r in rows for x in r)
    it = iter(nums)
    return [[next(it) for _ in r] for r in rows], den
