"""Quadratic extension ring Q(i)[p][s] / (s^2 - q(p)).

The modulus q has rational real coefficients, degree >= 1, and is squarefree
and not a perfect square, so a + b*s vanishes exactly when both component
polynomials do.  Elements carry their modulus; mixing moduli is an error.
"""

from __future__ import annotations

from .poly import UniPoly


class ModulusMismatch(ValueError):
    pass


def _validate_modulus(q: UniPoly) -> UniPoly:
    q = UniPoly.coerce(q)
    if q.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    if not q.is_real():
        raise ValueError("modulus must have rational real coefficients")
    if not q.gcd(q.derivative()) == UniPoly.const(1):
        raise ValueError("modulus must be squarefree")
    return q


class QuadExtElem:
    """Element a(p) + b(p)*s with s^2 = q(p)."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q, _validated=False):
        self.a = UniPoly.coerce(a)
        self.b = UniPoly.coerce(b)
        self.q = q if _validated else _validate_modulus(q)

    def _same(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.q != self.q:
                raise ModulusMismatch("operands live in different extensions")
            return other
        return QuadExtElem(UniPoly.coerce(other), UniPoly(), self.q, _validated=True)

    def with_parts(self, a, b) -> "QuadExtElem":
        return QuadExtElem(a, b, self.q, _validated=True)

    def __add__(self, other):
        other = self._same(other)
        return self.with_parts(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return self.with_parts(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._same(other))

    def __rsub__(self, other):
        return self._same(other) - self

    def __mul__(self, other):
        other = self._same(other)
        if self.b.is_zero() and other.b.is_zero():
            return self.with_parts(self.a * other.a, UniPoly())
        a = self.a * other.a + self.b * other.b * self.q
        b = self.a * other.b + self.b * other.a
        return self.with_parts(a, b)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, QuadExtElem):
            return self.q == other.q and self.a == other.a and self.b == other.b
        return (self - self._same(other)).is_zero()

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        if self.b.is_zero():
            return repr(self.a)
        return f"({self.a!r}) + ({self.b!r})*s"

