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
"""

from itertools import islice

from nilspec.exactnum import UniPoly
from nilspec.exactnum.poly import POLY_ONE
from nilspec.exactnum.quadext import QuadExtElem
from nilspec.geometry import koszul_connection
from nilspec.oneform import _echelon_quadratic, _ShiftedAtPoints


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
