"""One-form Laplacian matrices on character waves, and the eigenvalue tests.

For a functional tau vanishing on the derived algebra, the associated wave
function F(exp v) = e^{2 pi i tau(v)} spans a one-dimensional invariant
subspace, and the Laplacian on F tensor (invariant one-forms) becomes an
n x n matrix with entries in Q(i)[p], p standing for pi.  A candidate
eigenvalue lambda = a(p) + b(p) s, with s^2 = q(p), is plain coefficient
data: a ``Candidate`` of three tuples of (re, im) ``Fraction`` pairs, lowest
degree first, with no trailing zeros, validated once by ``from_json``.  It
is accepted or rejected by exact polynomial vanishing, which is equivalent
to the analytic statement because pi is transcendental.  The determinant
and the kernel entries come back in the same format, as pairs (A, B) of
coefficient tuples standing for A(p) + B(p) s.

`assemble_E` builds E once, as integer rows over one denominator: den E has
entries in Z[i][p], kept as (re, im) integer coefficient pairs.  Its shape
checks, the elimination below and the norm cross-check all read those rows.

`det_at` finds det(E - lambda I) = A(p) + B(p) s, with s^2 = q(p), by
evaluation and interpolation on integers.  Write lambda = a + b s, q = Q / c
with Q integral, and sigma = c s, so sigma^2 = c Q(p).  One common
denominator L, the lcm of den and the candidate's denominators, turns
L (E - lambda I) into a matrix over Z[i][p][sigma].  At an integer p0 that
matrix lies over Z[i][t]/(t^2 - d), with d = c Q(p0).
Points where q(p0) is zero or a square in Q(i) are skipped: a rational is a
square in Q(i) exactly when its absolute value is a rational square.  At the
remaining points the ring is a domain inside the field Q(i)(sqrt d).
Fraction-free (Bareiss) elimination there divides exactly, and the image of
a minor splits uniquely into its 1 and t parts.  Give p weight 1 and sigma
weight deg(q)/2.  Every entry then has weight at most w, the largest of the
entry degrees of E, deg a and deg b + deg(q)/2.  Evaluation is a ring
homomorphism, weights add under products, and sigma^2 -> c Q(p) keeps them.
So an r-minor A + B s of E - lambda I has L^r A and L^r B / c integer
polynomials of degree at most D = floor(r w), and their values at D + 1
distinct points determine them; r = n gives the determinant.

`nullity_at` uses the same points for the rank over the fraction field.  A
nonzero r-minor has weight at most r w <= n w, so its two parts cannot both
vanish at all of the first floor(n w) + 1 good points: at one of them the
evaluated matrix keeps rank r.  The rank is the largest rank seen there.
This is the eigenvalue test: evaluation is a ring homomorphism, so the
first full-rank point proves det(E - lambda I) nonzero and ends it; `det_at`
confirms the characters of positive nullity.  The kernel follows by
Cramer's rule from interpolated minors, all of them at a point from one
fraction-free Gauss-Jordan elimination, at good points where the chosen
maximal minor is nonzero.

`det_vanishes_by_norm` decides det(E - lambda I) = 0 apart from that
elimination.  At a good point K = Q(i)(s), s^2 = q(p0), is a field of degree
4 over Q.  The 4n x 4n rational matrix of E(p0) - lambda(p0) I acting on K^n
has as determinant the norm of the determinant over K, zero exactly when it is.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, islice
from math import isqrt, lcm
from typing import NamedTuple

from .exactnum import IntLattice, bareiss_det
from .exactnum.matrix import mat_vec
from .exactnum.qforms import enumerate_on_shell, enumerate_up_to
from .exactnum.scalars import rat_matrix, rat_to_str
from .geometry import Metric, koszul_connection, laplacian_on_invariant_oneforms
from .liealg import DEFAULT_SEED, SECTOR_SAMPLES, NilLieAlgebra
from .repspec import certify_rep_equivalent, sector_check
from .vecops import clear_denominators, clear_rows, vdot


class Candidate(NamedTuple):
    """A candidate eigenvalue a(p) + b(p) s with s^2 = q(p).

    Each field holds (re, im) ``Fraction`` pairs, lowest degree first, with
    no trailing zeros.  ``from_json`` admits only a q with rational real
    coefficients, degree >= 1 and no repeated factor; then q is not a square
    in Q(i)(p), and a + b s vanishes exactly when a and b both do.
    """

    a: tuple
    b: tuple
    q: tuple

    @classmethod
    def from_json(cls, data: dict) -> "Candidate":
        a, b, q = (
            _trim(map(tuple, rat_matrix(data[key], 2)))
            for key in ("a_coeffs", "b_coeffs", "q_coeffs")
        )
        if len(q) < 2:
            raise ValueError("modulus must have degree >= 1")
        if any(im for _, im in q):
            raise ValueError("modulus must have rational real coefficients")
        if not _squarefree([re for re, _ in q]):
            raise ValueError("modulus must be squarefree")
        return cls(a, b, q)

    def to_json(self) -> dict:
        return {
            f"{name}_coeffs": [[rat_to_str(re), rat_to_str(im)] for re, im in _trim(coeffs)]
            for name, coeffs in zip(self._fields, self)
        }


def _trim(coeffs) -> tuple:
    """The (re, im) pairs as a tuple, without trailing zero pairs."""
    out = list(coeffs)
    while out and not any(out[-1]):
        out.pop()
    return tuple(out)


def _squarefree(q) -> bool:
    """Whether gcd(q, q') over Q is a constant, for q of degree >= 1, lowest first.

    Euclid's algorithm: the last nonzero remainder is the gcd.
    """
    a, b = list(q), [k * c for k, c in enumerate(q)][1:]
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            for j, c in enumerate(b, len(a) - len(b)):
                a[j] -= f * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


class CharacterMatrix:
    """Matrix of the one-form Laplacian on a character wave's sector, as integers.

    ``rows[j][k]`` holds den E[j][k] as (re, im) integer coefficient pairs,
    lowest degree first, with no trailing zeros; ``s2`` is S^2 of the wave.
    """

    def __init__(self, algebra, metric, rows, den, s2):
        self.algebra = algebra
        self.metric = metric
        self.rows = rows
        self.den = den
        self.s2 = s2
        self._check_shape()

    def _check_shape(self):
        n = self.algebra.dim
        lap = laplacian_on_invariant_oneforms(self.metric)
        quad = 4 * self.s2 * self.den
        for j in range(n):
            for k in range(n):
                e = self.rows[j][k]
                if e != [(re, -im) for re, im in self.rows[k][j]]:
                    raise AssertionError("assembled matrix is not Hermitian")
                if len(e) > 3:
                    raise AssertionError("entry degree exceeds two")
                c0, c1, c2 = e + [(0, 0)] * (3 - len(e))
                if c2 != (quad if j == k else 0, 0):
                    raise AssertionError("quadratic part is not 4 S^2 I")
                if c0 != (lap[j][k] * self.den, 0):
                    raise AssertionError("constant part is not the invariant Laplacian")
                if c1[0]:
                    raise AssertionError("linear part is not purely imaginary")

    @property
    def dim(self) -> int:
        return self.algebra.dim


def assemble_E(algebra: NilLieAlgebra, metric: Metric, tau) -> CharacterMatrix:
    """Matrix of the Laplacian on F tensor (one-forms), in the dual frame.

    tau, in structure-dual coordinates, must vanish on the derived algebra.
    Diagonal: 4 p^2 S^2 plus the invariant-form Laplacian; off-diagonal
    linear terms come from -2 nabla_{grad F}, with grad F = 2 pi i F times
    the frame vector of tau.
    """
    for b in algebra.derived(1).basis():
        if vdot(tau, b) != 0:
            raise ValueError("functional does not vanish on the derived algebra")
    n = algebra.dim
    lap = laplacian_on_invariant_oneforms(metric)
    gamma = koszul_connection(metric)
    t = [vdot(tau, col) for col in metric.columns]
    s2 = vdot(t, t)
    support = [j for j in range(n) if t[j]]
    lin = [
        [-4 * sum(t[j] * gamma[j][m][l] for j in support if gamma[j][m][l]) for m in range(n)]
        for l in range(n)
    ]
    ints, den = clear_rows([[4 * s2], *lap, *lin])
    (quad,), lap_int, lin_int = ints[0], ints[1 : n + 1], ints[n + 1 :]
    rows = []
    for l in range(n):
        row = []
        for m in range(n):
            e = [(lap_int[l][m], 0), (0, lin_int[l][m]), (quad if l == m else 0, 0)]
            while e and e[-1] == (0, 0):
                e.pop()
            row.append(e)
        rows.append(row)
    return CharacterMatrix(algebra, metric, rows, den, s2)


def det_at(matrix: CharacterMatrix, lam: Candidate):
    """Exact det(E - lambda I) = A + B s as (A, B), plus the eigenvalue verdict.

    The full-size minor, by evaluation and interpolation (module docstring).
    """
    shifted = _ShiftedAtPoints(matrix, lam)
    n = matrix.dim
    xs, values = [], []
    for p0, d, m in islice(shifted.points(), shifted.needed(n)):
        _, cols, minors = _echelon_quadratic(m, d)
        xs.append(p0)
        values.append(minors[0] if len(cols) == n else (0, 0, 0, 0))
    det = shifted.interpolate(xs, values, n)
    return det, det == ((), ())


class _ShiftedAtPoints:
    """L (E - lambda I) at good integer points: the setup det_at and nullity_at share."""

    def __init__(self, matrix: CharacterMatrix, lam: Candidate):
        # q = Q / c with Q integral; sigma = c s has sigma^2 = c Q(p).
        qnum, self.c = clear_denominators(re for re, _ in lam.q)
        self.sigma_sq = [(self.c * x, 0) for x in qnum]
        b_over_c = [(Fraction(re, self.c), Fraction(im, self.c)) for re, im in lam.b]
        # L (E - lambda I) = L E - L a I - (L b / c) sigma I has Z[i] coefficients.
        self.scale = lcm(matrix.den, *(x.denominator for pair in (*lam.a, *b_over_c) for x in pair))
        k = self.scale // matrix.den
        self.entries = [[[(k * re, k * im) for re, im in e] for e in row] for row in matrix.rows]
        self.a_int = _gauss_int_coeffs(lam.a, self.scale)
        self.b_int = _gauss_int_coeffs(b_over_c, self.scale)
        self.two_w = _two_w(matrix, lam)

    def needed(self, r: int) -> int:
        """floor(r w) + 1: this many distinct points determine every r-minor."""
        return r * self.two_w // 2 + 1

    def points(self):
        """(p0, d, rows) at the good points in order: d = sigma^2 at p0 and
        rows = L (E - lambda I) there, as (ar, ai, br, bi)."""
        for p0, d in _good_points(self.sigma_sq):
            ar, ai = _eval_gauss(self.a_int, p0)
            br, bi = _eval_gauss(self.b_int, p0)
            rows = [
                [(er - ar, ei - ai, -br, -bi) if j == k else (er, ei, 0, 0)
                 for k, (er, ei) in enumerate(_eval_gauss(e, p0) for e in row)]
                for j, row in enumerate(self.entries)
            ]
            yield p0, d, rows

    def interpolate(self, xs, values, r):
        """The r-minor A + B s, as (A, B), from its values L^r A + (L^r B / c) sigma at the nodes xs."""
        den = self.scale**r
        re_a, im_a, re_b, im_b = (_interpolate(xs, [v[part] for v in values]) for part in range(4))
        return _gauss_poly(re_a, im_a, 1, den), _gauss_poly(re_b, im_b, self.c, den)


def _two_w(matrix: CharacterMatrix, lam: Candidate) -> int:
    """2w, kept integral: p weighs 1 and s weighs deg(q)/2 (module docstring)."""
    entry_degree = max(len(e) - 1 for row in matrix.rows for e in row)
    return max(2 * entry_degree, 2 * len(lam.a) - 2, 2 * len(lam.b) - 3 + len(lam.q), 0)


def _gauss_poly(re, im, num, den):
    """The coefficients num (re[k] + im[k] i) / den as (re, im) pairs."""
    return _trim((Fraction(num * x, den), Fraction(num * y, den)) for x, y in zip(re, im))


def _gauss_int_coeffs(coeffs, scale):
    """scale * (re, im) as an integer pair, for each pair whose denominators divide scale."""
    return [
        (re.numerator * (scale // re.denominator), im.numerator * (scale // im.denominator))
        for re, im in coeffs
    ]


def _eval_gauss(coeffs, x):
    """Value at the integer x of a polynomial with (re, im) integer or rational coefficients."""
    re = im = 0
    for cr, ci in reversed(coeffs):
        re = re * x + cr
        im = im * x + ci
    return re, im


def _good_points(square):
    """(p0, d = square(p0)) for p0 = 0, 1, -1, 2, -2, ..., so that values stay small.

    ``square`` is q or sigma^2 = c^2 q.  Skips the p0 where d is zero or a square in
    Q(i), which is when q(p0) is: when |d|, or |num(d) den(d)|, is a rational square.
    """
    for p0 in chain([0], chain.from_iterable(zip(count(1), count(-1, -1)))):
        d, _ = _eval_gauss(square, p0)
        v = abs(d.numerator * d.denominator)
        if v and isqrt(v) ** 2 != v:
            yield p0, d


def _qmul(x, y, d):
    """Product in Z[i][t]/(t^2 - d); (ar, ai, br, bi) is (ar + ai i) + (br + bi i) t."""
    ar, ai, br, bi = x
    cr, ci, er, ei = y
    return (
        ar * cr - ai * ci + d * (br * er - bi * ei),
        ar * ci + ai * cr + d * (br * ei + bi * er),
        ar * er - ai * ei + br * cr - bi * ci,
        ar * ei + ai * er + br * ci + bi * cr,
    )


def _echelon_quadratic(rows, d, jordan=False):
    """Fraction-free echelon over Z[i][t]/(t^2 - d), d not a square in Q(i).

    Returns (pivot_rows, pivot_cols, minors): the minor M on the original
    rows pivot_rows and columns pivot_cols is nonzero of size the rank r.
    If every row is a pivot row, minors starts with det M, rows in input
    order (the determinant of a square input).  With ``jordan`` the column
    above each pivot is cleared too, and then for each other column j come
    det M with its k-th column replaced by column j, k < r.  The ring is a
    domain inside Q(i)(sqrt d): dividing by the previous pivot x means
    multiplying by its conjugate (t -> -t) times the Gaussian conjugate of
    its norm N(x) = x conj_t(x), then dividing by |N(x)|^2.  Every such
    division is exact by Sylvester's identity, above the pivot too (Bareiss
    1968); a remainder is an arithmetic error.  Overwrites ``rows``.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    order = list(range(nrows))
    pivot_cols = []
    negate = False
    inv, norm, pk = None, 1, (1, 0, 0, 0)
    for k in range(ncols):
        r = len(pivot_cols)
        pr = next((i for i in range(r, nrows) if any(rows[i][k])), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            order[r], order[pr] = order[pr], order[r]
            negate = not negate
        piv = rows[r]
        pk = piv[k]
        for i in chain(range(r) if jordan else (), range(r + 1, nrows)):
            row = rows[i]
            head = row[k]
            for j in range(k + 1, ncols):
                x = _qmul(pk, row[j], d)
                y = _qmul(head, piv[j], d)
                x = (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])
                if inv is not None:
                    x = _qmul(x, inv, d)
                    quot = []
                    for v in x:
                        qv, rem = divmod(v, norm)
                        if rem:
                            raise ArithmeticError("inexact division in fraction-free echelon")
                        quot.append(qv)
                    x = tuple(quot)
                row[j] = x
        pivot_cols.append(k)
        cr, ci, er, ei = pk
        # N(pk) = (cr + ci i)^2 - d (er + ei i)^2 is nonzero because d is not a square.
        nr = cr * cr - ci * ci - d * (er * er - ei * ei)
        ni = 2 * (cr * ci - d * er * ei)
        inv = _qmul((cr, ci, -er, -ei), (nr, -ni, 0, 0), d)
        norm = nr * nr + ni * ni
    rank = len(pivot_cols)
    # These are the minors of the rows in their final order; the swaps' sign restores the input order.
    minors = [pk] + [rows[i][j] for j in range(ncols) if jordan and j not in pivot_cols for i in range(rank)]
    if negate:
        minors = [tuple(-v for v in x) for x in minors]
    return order[:rank], pivot_cols, minors


def _interpolate(xs, ys):
    """Coefficients, lowest first, of the integer polynomial of degree < len(xs)
    through the points (xs[k], ys[k]).

    Newton divided differences of an integer polynomial at integer nodes are
    integers, so a remainder means no such polynomial exists.
    """
    m = len(xs)
    dd = list(ys)
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            qv, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if r:
                raise ArithmeticError("minor values are not an integer polynomial")
            dd[i] = qv
    coeffs = [0] * m
    for i in range(m - 1, -1, -1):
        for j in range(m - 1, 0, -1):
            coeffs[j] = coeffs[j - 1] - xs[i] * coeffs[j]
        coeffs[0] = dd[i] - xs[i] * coeffs[0]
    return coeffs


def nullity_at(matrix: CharacterMatrix, lam: Candidate):
    """Exact nullity of E - lambda I with a kernel basis over the extension.

    Each kernel entry A + B s is a pair (A, B) of coefficient tuples.

    The rank is the largest at the first floor(n w) + 1 good points (module
    docstring); the first full-rank point ends the search with nullity 0.
    Each column f outside the nonzero maximal minor M found there gives one
    kernel vector by Cramer's rule: det M at f, minus det M with its k-th
    column replaced by column f at M's k-th column, zero elsewhere.  Each
    entry is one minor, interpolated through its values at the first
    floor(r w) + 1 good points where det M is nonzero; one Gauss-Jordan
    elimination (``_echelon_quadratic`` with ``jordan``) gives all of them
    at a point.
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
    xs, values = [], []
    for p0, d, m in shifted.points():
        # Columns cols, then free: the pivots are the first rank columns
        # exactly where det M is nonzero at p0.
        _, pivots, minors = _echelon_quadratic([[m[i][j] for j in cols + free] for i in rows], d, True)
        if pivots == list(range(rank)):
            xs.append(p0)
            values.append(minors)
            if len(xs) == shifted.needed(rank):
                break
    minors = [shifted.interpolate(xs, [v[k] for v in values], rank) for k in range(len(values[0]))]
    kernel = []
    for i, f in enumerate(free):
        vec = [((), ())] * n
        vec[f] = minors[0]
        for k, c in enumerate(cols):
            vec[c] = tuple(tuple((-re, -im) for re, im in part) for part in minors[1 + i * rank + k])
        kernel.append(vec)
    return n - rank, kernel


def det_vanishes_by_norm(matrix: CharacterMatrix, lam: Candidate) -> bool:
    """Whether det(E - lambda I) = 0, from its norms down to Q by ``bareiss_det`` (module docstring).

    A + B s vanishes at a good p0 exactly when A and B do there.  They have degree at
    most floor(n w), so it vanishes identically when it does at floor(n w) + 1 points.
    """
    n = matrix.dim
    for p0, q0 in islice(_good_points(lam.q), n * _two_w(matrix, lam) // 2 + 1):
        ar, ai = _eval_gauss(lam.a, p0)
        br, bi = _eval_gauss(lam.b, p0)
        rows = [[] for _ in range(4 * n)]
        for j, row in enumerate(matrix.rows):
            for k, e in enumerate(row):
                xr, xi = (Fraction(x, matrix.den) for x in _eval_gauss(e, p0))
                yr = yi = 0
                if j == k:
                    xr, xi, yr, yi = xr - ar, xi - ai, -br, -bi
                # Multiplication by (xr + xi i) + (yr + yi i) s on (1, i, s, is).
                rows[4 * j].extend((xr, -xi, q0 * yr, -q0 * yi))
                rows[4 * j + 1].extend((xi, xr, q0 * yi, q0 * yr))
                rows[4 * j + 2].extend((yr, -yi, xr, -xi))
                rows[4 * j + 3].extend((yi, yr, xi, xr))
        if bareiss_det(rows):
            return False
    return True


# -- character shells ---------------------------------------------------------


def character_dual_data(algebra: NilLieAlgebra, metric: Metric, log_lattice: IntLattice):
    """S^2 Gram form on the dual of the projected log lattice, and its lift.

    Characters are functionals vanishing on the derived algebra; the ones
    occurring for the lattice are exactly the integer-valued ones on the
    projected logs, i.e. the dual lattice downstairs.
    """
    proj = algebra.derived(1).projection()
    d = len(proj)
    projected = IntLattice(d, [mat_vec(proj, b) for b in log_lattice.basis_vectors()])
    if projected.rank != d:
        raise ValueError("projected lattice is not full rank")
    dual = projected.dual()
    dual_basis = dual.basis_vectors()
    w = [mat_vec(proj, col) for col in metric.columns]
    gram = [
        [
            sum(
                sum(da[a] * w[j][a] for a in range(d))
                * sum(db[b] * w[j][b] for b in range(d))
                for j in range(algebra.dim)
            )
            for db in dual_basis
        ]
        for da in dual_basis
    ]

    def lift(coeffs):
        # tau(e_m) = taubar(proj e_m).
        taubar = [
            sum(Fraction(c) * db[a] for c, db in zip(coeffs, dual_basis))
            for a in range(d)
        ]
        return tuple(
            sum(
                (taubar[a] * proj[a][m] for a in range(1, d)),
                taubar[0] * proj[0][m],
            )
            for m in range(algebra.dim)
        )

    return gram, lift


def enumerate_shell(algebra, metric, log_lattice, s2_target) -> list:
    """All character functionals of the lattice with S^2 equal to the target."""
    gram, lift = character_dual_data(algebra, metric, log_lattice)
    taus = [lift(m) for m in enumerate_on_shell(gram, Fraction(s2_target))]
    return sorted(taus)


def s2_values_up_to(algebra, metric, log_lattice, bound) -> list:
    """Multiset of S^2 over all characters with S^2 <= bound (sorted)."""
    gram, _ = character_dual_data(algebra, metric, log_lattice)
    return sorted(val for _, val in enumerate_up_to(gram, Fraction(bound)))


# -- pairwise verdicts ------------------------------------------------------------


def distinguish_pair(record, n_samples: int = SECTOR_SAMPLES, seed: int = DEFAULT_SEED) -> dict:
    """One-form comparison report for a ``repspec.ExampleRecord`` from ``registry.load``.

    Representation-equivalent pairs are reported as equal on one-forms, and
    the others without an eigenvalue candidate as inconclusive.  For the
    rest, the character sector is compared exactly: shells at the
    example's S^2 target, determinant and nullity at the candidate
    eigenvalue, and the resulting multiplicities.  Each remaining sector is
    compared by ``repspec.sector_check`` in the mode configured per example.
    """
    out = {"example": record.name}
    cor = certify_rep_equivalent(record, record.quotient_witness, seed=seed)
    if cor.kind == "rep_equivalent" and cor.ok:
        out["verdict"] = "one_form_isospectral"
        out["reason"] = "representation equivalent fundamental groups"
        return out
    lam = record.eigen_candidate
    if lam is None:
        return {**out, "verdict": "inconclusive", "reason": "no eigenvalue candidate"}
    out["lambda"] = lam.to_json()
    out["s2_target"] = rat_to_str(record.s2_target)

    algebra, metric = record.algebra, record.metric
    full1 = IntLattice(algebra.dim, record.spec1.generators)
    full2 = IntLattice(algebra.dim, record.spec2.generators)
    shells = []
    per_tau = []
    mults = []
    for lat in (full1, full2):
        shell = enumerate_shell(algebra, metric, lat, record.s2_target)
        shells.append([[rat_to_str(t) for t in tau] for tau in shell])
        rows = []
        total = 0
        for tau in shell:
            e = assemble_E(algebra, metric, tau)
            # The rank pass is the eigenvalue test; det_at confirms a positive nullity.
            nullity, _ = nullity_at(e, lam)
            if nullity and not det_at(e, lam)[1]:
                raise AssertionError("positive nullity at a nonzero determinant")
            rows.append(
                {
                    "tau": [rat_to_str(t) for t in tau],
                    "det_zero": nullity > 0,
                    "nullity": nullity,
                }
            )
            total += nullity
        per_tau.append(rows)
        mults.append(total)
    out["shells"] = {"lattice1": shells[0], "lattice2": shells[1]}
    out["per_tau"] = {"lattice1": per_tau[0], "lattice2": per_tau[1]}
    out["character_multiplicities"] = {"lattice1": mults[0], "lattice2": mults[1]}

    out["sector_checks"] = {
        label: sector_check(
            record, record.sector_flag, label, mode, record.pairing_map, n_samples, seed
        )
        for label, mode in sorted(record.sector_modes.items())
    }
    out["seed"] = seed

    sectors_ok = all(check["ok"] for check in out["sector_checks"].values())
    if sectors_ok and mults[0] != mults[1]:
        out["verdict"] = "not_one_form_isospectral"
    else:
        out["verdict"] = "inconclusive"
    return out
