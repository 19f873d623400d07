"""Test-side helpers for the geometry and one-form layers.

They have no caller in the package, so they live here:

- ``plain_candidate`` and ``sqrt_candidate``: eigenvalue candidates a(p) and
  q(p) + s with s^2 = q(p).
- ``nabla_chart``: the connection as sparse charts, compared with the
  paper's tables.
- ``connection_identities_hold``: metric compatibility and torsion-freeness
  of a connection table, exactly.
- ``reference_nullity_at``: the Cramer kernel ``nullity_at`` used to build,
  one separate elimination per minor at each of the first good points.
- ``reference_assemble_E``: the character matrix as ``UniPoly`` entries over
  ``GaussRat``, each a ``Fraction`` sum over the connection table, as
  ``assemble_E`` built it before it kept integer rows.  ``as_polys`` reads
  an assembled matrix's integer rows back as such entries, and
  ``as_int_matrix`` turns ``UniPoly`` entries into the integer rows
  ``det_at`` and ``nullity_at`` read.
- ``s_squared``: S^2 of a functional, from the metric's frame columns.
- ``leading_pi_coefficient``: the top p-coefficient of det(E - lambda I).
"""

from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

from nilspec.exactnum import UniPoly
from nilspec.exactnum.poly import POLY_ONE
from nilspec.exactnum.quadext import QuadExtElem
from nilspec.exactnum.scalars import GaussRat
from nilspec.geometry import koszul_connection, laplacian_on_invariant_oneforms
from nilspec.oneform import _echelon_quadratic, _ShiftedAtPoints, det_at
from nilspec.vecops import clear_denominators


def plain_candidate(poly_coeffs) -> QuadExtElem:
    """Candidate a(p) + 0*s; the modulus is irrelevant and kept minimal."""
    return QuadExtElem(UniPoly(poly_coeffs), UniPoly(), UniPoly([0, 1]))


def sqrt_candidate(q_coeffs) -> QuadExtElem:
    """Candidate q(p) + s with s^2 = q(p)."""
    q = UniPoly(q_coeffs)
    return QuadExtElem(q, POLY_ONE, q)


def nabla_chart(algebra, metric, directions=None, covectors=None):
    """Chart of nabla_{E_i} eps_m as sparse coefficient lists.

    Returns {(i, m): [(k, coeff), ...]} restricted to the requested frame
    indices; defaults cover the whole frame.
    """
    gamma = koszul_connection(algebra, metric).gamma
    n = algebra.dim
    directions = list(range(n)) if directions is None else list(directions)
    covectors = list(range(n)) if covectors is None else list(covectors)
    chart = {}
    for i in directions:
        for m in covectors:
            coeffs = gamma[i][m]
            chart[(i, m)] = [(k, coeffs[k]) for k in range(n) if coeffs[k] != 0]
    return chart


def connection_identities_hold(table) -> bool:
    """Metric compatibility and torsion-freeness, exactly."""
    n = table.metric.algebra.dim
    c = table.metric.frame_brackets()
    gamma = table.gamma
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
    dets = [shifted.interpolate(xs, [v[k] for v in values], rank) for k in range(len(minors))]
    zero = lam.with_parts(UniPoly(), UniPoly())
    kernel = []
    for i, f in enumerate(free):
        vec = [zero] * n
        vec[f] = dets[0]
        for k, c in enumerate(cols):
            vec[c] = -dets[1 + i * rank + k]
        kernel.append(vec)
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


def reference_assemble_E(algebra, metric, tau):
    """E_tau as UniPoly entries, one Fraction sum over the connection table each."""
    n = algebra.dim
    t = [sum((Fraction(x) * c for x, c in zip(tau, col)), Fraction(0)) for col in metric.columns]
    s2 = sum((v * v for v in t), Fraction(0))
    lap = laplacian_on_invariant_oneforms(algebra, metric)
    gamma = koszul_connection(algebra, metric).gamma
    entries = []
    for l in range(n):
        row = []
        for m in range(n):
            coeff1 = Fraction(0)
            for j in range(n):
                if t[j]:
                    coeff1 += t[j] * gamma[j][m][l]
            coeffs = [GaussRat(lap[l][m]), GaussRat(0, -4 * coeff1)]
            if l == m:
                coeffs.append(GaussRat(4 * s2))
            row.append(UniPoly(coeffs))
        entries.append(row)
    return entries


def as_polys(matrix):
    """The entries rows / den of an integer character matrix, as UniPoly over GaussRat."""
    return [
        [UniPoly(GaussRat(Fraction(re, matrix.den), Fraction(im, matrix.den)) for re, im in e) for e in row]
        for row in matrix.rows
    ]


def as_int_matrix(entries):
    """A stand-in character matrix with the integer rows of UniPoly entries.

    It keeps ``entries`` too, for the references that read them.
    """
    n = len(entries)
    parts = [x for row in entries for e in row for c in e.coeffs for x in (c.re, c.im)]
    _, den = clear_denominators(parts)
    rows = [
        [[(int(c.re * den), int(c.im * den)) for c in e.coeffs] for e in row] for row in entries
    ]
    return SimpleNamespace(dim=n, rows=rows, den=den, entries=entries)


def leading_pi_coefficient(matrix, lam) -> Fraction:
    """Coefficient of p^(2n) in the polynomial part of det(E - lambda I).

    For the candidates treated here (lambda = c p^2 + lower order, possibly
    plus s), that is the top coefficient whose vanishing pins S^2.
    """
    det, _ = det_at(matrix, lam)
    top = det.a.coeff(2 * matrix.dim)
    if not top.is_real():
        raise AssertionError("leading coefficient is not real")
    return top.re
