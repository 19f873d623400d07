"""Univariate polynomials over Q(i) in an indeterminate standing for pi."""

from __future__ import annotations

from fractions import Fraction

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat


def _coerce_coeff(c) -> GaussRat:
    if isinstance(c, GaussRat):
        return c
    return GaussRat(c)


class UniPoly:
    """Dense polynomial sum_k coeffs[k] * p**k, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly([_coerce_coeff(c)])

    @staticmethod
    def monomial(c, k: int) -> "UniPoly":
        return UniPoly([GAUSS_ZERO] * k + [_coerce_coeff(c)])

    @staticmethod
    def coerce(x) -> "UniPoly":
        if isinstance(x, UniPoly):
            return x
        return UniPoly.const(x)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k: int) -> GaussRat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GAUSS_ZERO

    def leading(self) -> GaussRat:
        if not self.coeffs:
            return GAUSS_ZERO
        return self.coeffs[-1]

    def __add__(self, other):
        other = UniPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-UniPoly.coerce(other))

    def __rsub__(self, other):
        return UniPoly.coerce(other) - self

    def __mul__(self, other):
        other = UniPoly.coerce(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [GAUSS_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            if isinstance(other, (int, Fraction, GaussRat)):
                return self == UniPoly.coerce(other)
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other: "UniPoly"):
        """Long division over the field Q(i)."""
        other = UniPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [GAUSS_ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if top.is_zero():
                continue
            f = top / lead
            quot[k] = f
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * c
        return UniPoly(quot), UniPoly(rem)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, UniPoly.coerce(other)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * UniPoly.const(GAUSS_ONE / a.leading())

    def derivative(self) -> "UniPoly":
        return UniPoly([c * GaussRat(k) for k, c in enumerate(self.coeffs)][1:])

    def conj(self) -> "UniPoly":
        """Coefficient-wise conjugation (the indeterminate is real)."""
        return UniPoly([c.conj() for c in self.coeffs])

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def eval_complex(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c.to_complex()
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(repr(c))
            elif k == 1:
                parts.append(f"{c!r}*p")
            else:
                parts.append(f"{c!r}*p^{k}")
        return " + ".join(parts)


POLY_ZERO = UniPoly()
POLY_ONE = UniPoly.const(1)
POLY_P = UniPoly.monomial(1, 1)
