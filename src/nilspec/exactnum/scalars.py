"""Exact rationals: parsing, printing and square roots.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator, total order).  A Gaussian rational is a (re, im) pair of them
wherever one is needed; no module computes in Q(i) through a class.

Files carry a rational as a string, "p" or "p/q", and a rational matrix as a
JSON list of such rows.  ``rat_from_str`` reads the one and ``rat_matrix``,
the one reader of the other, reads the rows; both raise ``ValueError`` naming
what they could not read, so a malformed file never reaches the arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

def rat_from_str(s: str) -> Fraction:
    """Parse a rational serialized as "p" or "p/q"; anything else is a ValueError.

    That covers a value that is not a string and a zero denominator.
    """
    if not isinstance(s, str):
        raise ValueError(f'a rational is a string "p" or "p/q", got {s!r}')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


def rat_matrix(rows, ncols: int | None = None) -> list:
    """A JSON list of rows of rationals as a list of lists of ``Fraction``.

    Each row must be a list, so a string is not a row, and with ncols each
    row must have ncols entries.  The ValueError for a bad row names it.
    """
    if not isinstance(rows, list):
        raise ValueError(f"a matrix is a list of rows, got {rows!r}")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"row {r} is not a list of rationals: {row!r}")
        if ncols is not None and len(row) != ncols:
            raise ValueError(f"row {r} has {len(row)} entries, not {ncols}")
        try:
            out.append([rat_from_str(x) for x in row])
        except ValueError as exc:
            raise ValueError(f"row {r}: {exc}") from None
    return out


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
