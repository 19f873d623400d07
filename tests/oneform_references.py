"""Test-side helpers for the geometry and one-form layers.

They have no caller in the package, so they live here:

- ``poly``, ``padd``, ``psub`` and ``pmul``: polynomials in p over Q(i) in
  the package's format, tuples of (re, im) ``Fraction`` pairs, lowest degree
  first, with no trailing zeros; equality and the zero test (``== ()``) are
  tuple equality.
- ``Ext``: a + b s in Q(i)[p][s]/(s^2 - q) with +, -, *, == and the zero
  test, the exact arithmetic ``cofactor_det`` and the kernel checks need.
  ``ext`` and ``Ext.parts`` convert from and to the (A, B) pairs that
  ``det_at`` and ``nullity_at`` return.
- ``plain_candidate`` and ``sqrt_candidate``: eigenvalue candidates a(p) and
  q(p) + s with s^2 = q(p).
- ``nabla_chart``: the connection as sparse charts, compared with the
  paper's tables.
- ``connection_identities_hold``: metric compatibility and torsion-freeness
  of a connection table, exactly.
- ``reference_nullity_at``: the Cramer kernel ``nullity_at`` used to build,
  one separate elimination per minor at each of the first good points.
- ``reference_assemble_E``: the character matrix as coefficient tuples,
  each a ``Fraction`` sum over the connection table, as ``assemble_E`` built
  it before it kept integer rows.  ``as_polys`` reads an assembled matrix's
  integer rows back as such entries, and ``as_int_matrix`` turns entries
  into the integer rows ``det_at`` and ``nullity_at`` read.
- ``s_squared``: S^2 of a functional, from the metric's frame columns.
- ``covector_from_frame``: structure-dual coordinates of a frame covector.
- ``leading_pi_coefficient``: the top p-coefficient of det(E - lambda I).
- ``numeric_spectrum``: float eigenvalues of E at a float p, by numpy, the
  float reference of acceptance criterion 10.
"""

from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

from nilspec.exactnum.matrix import invert_rational
from nilspec.geometry import koszul_connection, laplacian_on_invariant_oneforms
from nilspec.oneform import Candidate, _echelon_quadratic, _ShiftedAtPoints, det_at
from nilspec.vecops import clear_denominators

ZERO = Fraction(0)


def _trimmed(pairs) -> tuple:
    out = [(Fraction(re), Fraction(im)) for re, im in pairs]
    while out and out[-1] == (0, 0):
        out.pop()
    return tuple(out)


def poly(*coeffs) -> tuple:
    """A polynomial from its coefficients, lowest first: numbers or (re, im) pairs."""
    return _trimmed(c if isinstance(c, tuple) else (c, 0) for c in coeffs)


def padd(x, y) -> tuple:
    n = max(len(x), len(y))
    x, y = x + ((ZERO, ZERO),) * (n - len(x)), y + ((ZERO, ZERO),) * (n - len(y))
    return _trimmed((a + c, b + d) for (a, b), (c, d) in zip(x, y))


def psub(x, y) -> tuple:
    return padd(x, tuple((-re, -im) for re, im in y))


def pmul(x, y) -> tuple:
    out = [(ZERO, ZERO)] * max(len(x) + len(y) - 1, 0)
    for i, (a, b) in enumerate(x):
        for j, (c, d) in enumerate(y):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return _trimmed(out)


class Ext:
    """a + b s with s^2 = q, for coefficient tuples a, b and q."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        self.a, self.b, self.q = a, b, q

    @property
    def parts(self) -> tuple:
        """(A, B), the format of ``det_at``'s determinant and ``nullity_at``'s kernel entries."""
        return self.a, self.b

    def __add__(self, other):
        return Ext(padd(self.a, other.a), padd(self.b, other.b), self.q)

    def __sub__(self, other):
        return Ext(psub(self.a, other.a), psub(self.b, other.b), self.q)

    def __neg__(self):
        return Ext((), (), self.q) - self

    def __mul__(self, other):
        a = padd(pmul(self.a, other.a), pmul(pmul(self.b, other.b), self.q))
        return Ext(a, padd(pmul(self.a, other.b), pmul(self.b, other.a)), self.q)

    def is_zero(self) -> bool:
        return self.a == self.b == ()

    def __eq__(self, other):
        if isinstance(other, Ext):
            return (self - other).is_zero()
        return other == 0 and self.is_zero()


def ext(pair, q) -> Ext:
    """The element A + B s of an (A, B) pair, with s^2 = q."""
    return Ext(pair[0], pair[1], q)


def plain_candidate(poly_coeffs) -> Candidate:
    """Candidate a(p) + 0*s; the modulus is irrelevant and kept minimal."""
    return Candidate(poly(*poly_coeffs), (), poly(0, 1))


def sqrt_candidate(q_coeffs) -> Candidate:
    """Candidate q(p) + s with s^2 = q(p)."""
    q = poly(*q_coeffs)
    return Candidate(q, poly(1), q)


def nabla_chart(algebra, metric, directions=None, covectors=None):
    """Chart of nabla_{E_i} eps_m as sparse coefficient lists.

    Returns {(i, m): [(k, coeff), ...]} restricted to the requested frame
    indices; defaults cover the whole frame.
    """
    gamma = koszul_connection(metric)
    n = algebra.dim
    directions = list(range(n)) if directions is None else list(directions)
    covectors = list(range(n)) if covectors is None else list(covectors)
    chart = {}
    for i in directions:
        for m in covectors:
            coeffs = gamma[i][m]
            chart[(i, m)] = [(k, coeffs[k]) for k in range(n) if coeffs[k] != 0]
    return chart


def connection_identities_hold(metric) -> bool:
    """Metric compatibility and torsion-freeness of the metric's connection, exactly."""
    n = metric.algebra.dim
    c = metric.frame_brackets()
    gamma = koszul_connection(metric)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if gamma[i][j][k] + gamma[i][k][j] != 0:
                    return False
                if gamma[i][j][k] - gamma[j][i][k] != c[i][j][k]:
                    return False
    return True


def reference_nullity_at(matrix, lam):
    """(nullity, kernel) with each Cramer minor from its own elimination.

    The rank pass is ``nullity_at``'s.  Every entry of the kernel is one
    r-minor, eliminated on its own at each of the first floor(r w) + 1 good
    points and interpolated, with no point skipped.
    """
    shifted = _ShiftedAtPoints(matrix, lam)
    n = matrix.dim
    rows, cols = [], []
    for _, d, m in islice(shifted.points(), shifted.needed(n)):
        rows, cols = max((rows, cols), _echelon_quadratic(m, d)[:2], key=lambda rc: len(rc[1]))
        if len(cols) == n:
            return 0, []
    free = [f for f in range(n) if f not in cols]
    rank = len(cols)
    minors = [(rows, cols)] + [
        (rows, cols[:k] + [f] + cols[k + 1 :]) for f in free for k in range(rank)
    ]
    xs, values = [], []
    for p0, d, m in islice(shifted.points(), shifted.needed(rank)):
        xs.append(p0)
        values.append([_determinant([[m[i][j] for j in cs] for i in rs], d) for rs, cs in minors])
    dets = [ext(shifted.interpolate(xs, [v[k] for v in values], rank), lam.q) for k in range(len(minors))]
    kernel = []
    for i, f in enumerate(free):
        vec = [Ext((), (), lam.q)] * n
        vec[f] = dets[0]
        for k, c in enumerate(cols):
            vec[c] = -dets[1 + i * rank + k]
        kernel.append([x.parts for x in vec])
    return n - rank, kernel


def _determinant(rows, d):
    _, cols, minors = _echelon_quadratic(rows, d)
    return minors[0] if len(cols) == len(rows) else (0, 0, 0, 0)


def s_squared(metric, tau):
    """S^2 = sum_j tau(E_j)^2 over the frame columns E_j."""
    return sum(
        (sum((Fraction(t) * x for t, x in zip(tau, col)), Fraction(0)) ** 2 for col in metric.columns),
        Fraction(0),
    )


def covector_from_frame(metric, coeffs):
    """Structure-dual coordinates of sum_i coeffs[i] * eps_i."""
    inv = invert_rational(metric.matrix)
    n = metric.algebra.dim
    coeffs = list(coeffs) + [0] * (n - len(coeffs))
    return tuple(sum((Fraction(coeffs[i]) * inv[i][m] for i in range(n)), Fraction(0)) for m in range(n))


def reference_assemble_E(algebra, metric, tau):
    """E_tau as coefficient tuples, one Fraction sum over the connection table each."""
    n = algebra.dim
    t = [sum((Fraction(x) * c for x, c in zip(tau, col)), Fraction(0)) for col in metric.columns]
    s2 = sum((v * v for v in t), Fraction(0))
    lap = laplacian_on_invariant_oneforms(metric)
    gamma = koszul_connection(metric)
    entries = []
    for l in range(n):
        row = []
        for m in range(n):
            coeff1 = Fraction(0)
            for j in range(n):
                if t[j]:
                    coeff1 += t[j] * gamma[j][m][l]
            row.append(poly(lap[l][m], (0, -4 * coeff1), 4 * s2 if l == m else 0))
        entries.append(row)
    return entries


def as_polys(matrix):
    """The entries rows / den of an integer character matrix, as coefficient tuples."""
    return [[poly(*((Fraction(re, matrix.den), Fraction(im, matrix.den)) for re, im in e)) for e in row]
            for row in matrix.rows]


def as_int_matrix(entries):
    """A stand-in character matrix with the integer rows of coefficient-tuple entries.

    It keeps ``entries`` too, for the references that read them.
    """
    n = len(entries)
    _, den = clear_denominators(x for row in entries for e in row for c in e for x in c)
    rows = [[[(int(re * den), int(im * den)) for re, im in e] for e in row] for row in entries]
    return SimpleNamespace(dim=n, rows=rows, den=den, entries=entries)


def leading_pi_coefficient(matrix, lam) -> Fraction:
    """Coefficient of p^(2n) in the polynomial part of det(E - lambda I).

    For the candidates treated here (lambda = c p^2 + lower order, possibly
    plus s), that is the top coefficient whose vanishing pins S^2.
    """
    (a, _), _ = det_at(matrix, lam)
    re, im = a[2 * matrix.dim] if len(a) > 2 * matrix.dim else (0, 0)
    if im:
        raise AssertionError("leading coefficient is not real")
    return re


def numeric_spectrum(matrix, pi_value: float) -> list:
    """Eigenvalues of the Hermitian matrix E at p = pi_value, in floating point, sorted."""
    import numpy as np

    def at(coeffs):
        return sum(complex(re, im) * pi_value**k for k, (re, im) in enumerate(coeffs))

    a = np.array([[at(e) for e in row] for row in matrix.rows]) / matrix.den
    return sorted(np.linalg.eigvalsh(a).tolist())
