"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator, total order).  ``GaussRat`` adds the imaginary unit with exact
field arithmetic; the indeterminate standing for pi lives one level up, in
the polynomial ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat_from_str(s: str) -> Fraction:
    """Parse a rational serialized as "p" or "p/q"."""
    return Fraction(s.strip())


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


class GaussRat:
    """Element re + im*i of the field Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(x)

    def __add__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return rat_to_str(self.re)
        if self.re == 0:
            return f"{rat_to_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({rat_to_str(self.re)}{sign}{rat_to_str(abs(self.im))}*i)"


GAUSS_ZERO = GaussRat(0, 0)
GAUSS_ONE = GaussRat(1, 0)
GAUSS_I = GaussRat(0, 1)
