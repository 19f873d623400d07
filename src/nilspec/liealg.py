"""Nilpotent Lie algebras over Q.

Brackets, lower central series, centers and centralizers, quotients, the
truncated group law in logarithmic coordinates, and the exact sampling
checks used by the certification layer, with the package's one sampling
policy.  Vectors are tuples of Fractions in the structure basis; linear
maps are row-major matrices sending coordinate columns to coordinate
columns.

The structure constants are held once, as an integer tensor over one
common denominator den (``structure_tensor``) with per-index ad lists,
compiled at construction: the package's one integer structure-constant
kernel.  On vectors with cleared denominators, ``bracket_int`` and
``ad_int`` are den times the bracket and ``cbh_int`` is the step-3 group
law.  The rational methods (``bracket``, ``basis_bracket``, ``cbh``,
``is_automorphism``) keep their interfaces and convert at the boundary;
``validate`` checks the Jacobi identity on integer unit vectors.
``in_basis`` writes the algebra in another basis or on quotient
representatives, for ``quotient`` and for a lattice's generator basis.
``ad_scaled`` and ``form_scaled`` give ad(x) and tau([e_i, e_j]) as integer
matrices, on which the rank conditions behind the sampled checks (strict
nonsingularity ``z in ad(X)g``, almost-innerness ``phi(X) - X in [g, X]``,
coadjoint orbits) and the center and centralizers are decided by
fraction-free elimination (``bareiss_echelon`` on ints): a vector lies in
the column span of ``A`` exactly when appending it adds no pivot, and a
positive rescaling of ``A`` or of the vector changes neither.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .exactnum import rat_from_str
from .exactnum.matrix import (
    bareiss_det,
    bareiss_echelon,
    identity,
    mat_vec,
    rank_and_kernel,
    rref,
    solve_rational,
)
from .vecops import (
    basis_vec,
    clear_denominators,
    clear_rows,
    is_zero_vec,
    vadd,
    vec,
    vsub,
)

# The sampling policy: the defaults of every sampled check and of the CLI's flags.
DEFAULT_SEED = 1729
CERTIFY_SAMPLES = 200  # almost-innerness, and the floor of strict nonsingularity
SECTOR_SAMPLES = 12  # functionals per sampled sector check
SAMPLE_NUMERATOR_BOUND = 10
SAMPLE_DENOMINATORS = (1, 2, 3, 4)


def sample_fraction(rng: random.Random) -> Fraction:
    return Fraction(
        rng.randint(-SAMPLE_NUMERATOR_BOUND, SAMPLE_NUMERATOR_BOUND),
        rng.choice(SAMPLE_DENOMINATORS),
    )


def sample_vector(rng: random.Random, dim: int) -> tuple:
    return tuple(sample_fraction(rng) for _ in range(dim))


class Subspace:
    """Subspace of Q^n in canonical reduced row form.

    ``rows`` is the reduced row echelon basis and ``pivots`` its pivot
    columns, so equal subspaces have equal rows.  The echelon form is the
    one place that reduces (``reduce``, ``contains``), projects onto the
    quotient Q^n / S (``projection``) and intersects (``intersection``).
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors):
        self.ambient = ambient
        rows, pivots = rref([list(v) for v in vectors] or [[Fraction(0)] * ambient])
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> tuple:
        """v minus the vector of the subspace that agrees with it at every pivot."""
        work = list(v)
        for row, p in zip(self.rows, self.pivots):
            f = work[p]
            if f:
                work = [a - f * b for a, b in zip(work, row)]
        return tuple(work)

    def contains(self, v) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def basis(self):
        return [tuple(r) for r in self.rows]

    def projection(self):
        """Matrix of ``reduce`` read at the non-pivot coordinates: Q^n onto Q^n / S."""
        cols = [self.reduce(basis_vec(self.ambient, j)) for j in range(self.ambient)]
        return [[col[m] for col in cols] for m in range(self.ambient) if m not in self.pivots]

    def intersection(self, other: "Subspace") -> "Subspace":
        """A cap B from one reduced form of [A | A; B | 0] (Zassenhaus).

        The row space is {(xA + yB, xA)}; its rows with a pivot in the right
        half span the vectors with xA + yB = 0, whose right halves xA = -yB
        span A cap B.
        """
        n = self.ambient
        if n != other.ambient:
            raise ValueError("ambient dimension mismatch")
        zero = [Fraction(0)] * n
        rows, pivots = rref([[*a, *a] for a in self.rows] + [[*b, *zero] for b in other.rows])
        return Subspace(n, [row[n:] for row, p in zip(rows, pivots) if p >= n])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


class NilLieAlgebra:
    """Lie algebra given by rational structure constants on a fixed basis."""

    def __init__(self, dim: int, names, brackets):
        """brackets: mapping (i, j) with i < j to a list of (k, rational)."""
        self.dim = dim
        self.names = list(names)
        if len(self.names) != dim:
            raise ValueError("need one name per basis vector")
        entries = []
        for (i, j), terms in sorted(brackets.items()):
            if not 0 <= i < j < dim:
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            for k, c in terms:
                if not 0 <= k < dim:
                    raise ValueError(
                        f"bracket ({i}, {j}) has a term at index {k}, outside 0..{dim - 1}"
                    )
                c = Fraction(c)
                if c:
                    entries.append((i, j, k, c))
        self._series = None
        self._center = None
        den = lcm(1, *(c.denominator for *_, c in entries))
        self._entries = tuple((i, j, k, int(c * den)) for i, j, k, c in entries)
        self._den = den
        ad = [[] for _ in range(dim)]
        for i, j, k, c in self._entries:
            ad[i].append((j, k, c))
            ad[j].append((i, k, -c))
        self._ad = tuple(tuple(terms) for terms in ad)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_json(data: dict) -> "NilLieAlgebra":
        brackets = {}
        for i, j, terms in data["brackets"]:
            if (i, j) in brackets:
                raise ValueError(f"bracket ({i}, {j}) is listed twice")
            brackets[(i, j)] = [(k, rat_from_str(c)) for k, c in terms]
        return NilLieAlgebra(data["dim"], data["names"], brackets)

    # -- bracket and series ----------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> tuple:
        out = [0] * self.dim
        for b, k, c in self._ad[i]:
            if b == j:
                out[k] += c
        return tuple(Fraction(v, self._den) for v in out)

    def bracket(self, x, y) -> tuple:
        """[x, y] for rational vectors, by ``bracket_int`` on cleared denominators."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector dimension mismatch")
        nums, d = clear_denominators((*x, *y))
        scale = self._den * d * d
        return tuple(Fraction(v, scale) for v in self.bracket_int(nums[:n], nums[n:]))

    # -- integer structure tensor ------------------------------------------------

    def structure_tensor(self):
        """(entries, den): the structure constants as integers over one denominator.

        den > 0, and entries lists (i, j, k, c) with i < j for the nonzero
        entries C[i][j][k] = c of the tensor antisymmetric in i, j with
        [e_i, e_j] = sum_k C[i][j][k] e_k / den.
        """
        return self._entries, self._den

    def ad_lists(self):
        """Per index i, the (j, k, c) with c the e_k entry of den * [e_i, e_j]."""
        return self._ad

    def ad_int(self, i, x):
        """den * [e_i, x] for an integer vector x."""
        out = [0] * self.dim
        for j, k, c in self._ad[i]:
            if x[j]:
                out[k] += c * x[j]
        return out

    def bracket_int(self, x, y):
        """den * [x, y] for integer vectors x and y."""
        out = [0] * self.dim
        for i, j, k, c in self._entries:
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                out[k] += c * f
        return out

    def cbh_int(self, x, y, d=1):
        """12 den^2 d^3 log(exp(x/d) exp(y/d)) for integer x, y and a positive integer d.

        The step-3 group law x + y + [x, y]/2 + ([x, [x, y]] + [y, [y, x]])/12
        over one denominator; both triple brackets are read off B = den [x, y].
        The caller checks that the algebra has step at most three.
        """
        b = self.bracket_int(x, y)
        keep = 12 * self._den**2 * d * d
        half = 6 * self._den * d
        return [
            keep * (p + q) + half * r + s - t
            for p, q, r, s, t in zip(x, y, b, self.bracket_int(x, b), self.bracket_int(y, b))
        ]

    def ad_scaled(self, x):
        """den * ad(x) as an integer matrix, for an integer vector x.

        Column j is den * [x, e_j]; den is ``structure_tensor()``'s.
        """
        n = self.dim
        out = [[0] * n for _ in range(n)]
        for i, j, k, c in self.structure_tensor()[0]:
            # [x, e_j] collects x_i C[i][j], [x, e_i] collects x_j C[j][i].
            row = out[k]
            row[j] += x[i] * c
            row[i] -= x[j] * c
        return out

    def form_scaled(self, t):
        """den * tau([e_i, e_j]) as an integer matrix, for integer tau = t."""
        n = self.dim
        out = [[0] * n for _ in range(n)]
        for i, j, k, c in self.structure_tensor()[0]:
            v = t[k] * c
            out[i][j] += v
            out[j][i] -= v
        return out

    def _common_kernel(self, vectors) -> Subspace:
        """{v : [v, b] = 0 for every b in vectors}, by integer elimination."""
        stacked = []
        for b in vectors:
            # [v, b] = -ad(b) v, and a positive scale keeps the kernel.
            stacked.extend(self.ad_scaled(clear_denominators(b)[0]))
        _, kernel = rank_and_kernel(stacked)
        return Subspace(self.dim, kernel)

    def lower_central_series(self):
        """Subspaces [g^(1), g^(2), ...] down to zero."""
        if self._series is not None:
            return self._series
        series = []
        current = [
            self.basis_bracket(i, j)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        ]
        sub = Subspace(self.dim, current)
        while sub.dim > 0:
            series.append(sub)
            nxt = [
                self.bracket(basis_vec(self.dim, i), b)
                for i in range(self.dim)
                for b in sub.basis()
            ]
            new_sub = Subspace(self.dim, nxt)
            if new_sub.dim >= sub.dim:
                raise ValueError("lower central series does not terminate")
            sub = new_sub
        series.append(sub)  # the zero subspace
        self._series = series
        return series

    @property
    def step(self) -> int:
        """k with g^(k) = 0 and g^(k-1) != 0; abelian algebras are 1-step."""
        return len(self.lower_central_series())

    def derived(self, k: int = 1) -> Subspace:
        """g^(k) of the lower central series; g^(0) is the whole algebra."""
        if k == 0:
            return Subspace(self.dim, [basis_vec(self.dim, i) for i in range(self.dim)])
        series = self.lower_central_series()
        if k <= len(series):
            return series[k - 1]
        return series[-1]

    def center(self) -> Subspace:
        if self._center is None:
            self._center = self._common_kernel(
                [basis_vec(self.dim, j) for j in range(self.dim)]
            )
        return self._center

    def centralizer(self, sub: Subspace) -> Subspace:
        basis = sub.basis()
        if not basis:
            return Subspace(self.dim, [basis_vec(self.dim, i) for i in range(self.dim)])
        return self._common_kernel(basis)

    def is_ideal(self, sub: Subspace) -> bool:
        return all(
            sub.contains(self.bracket(basis_vec(self.dim, i), b))
            for i in range(self.dim)
            for b in sub.basis()
        )

    def quotient(self, ideal: Subspace):
        """Quotient algebra by an ideal plus the projection matrix.

        The quotient's basis is the images of the e_m off the ideal's pivots.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        keep = [m for m in range(self.dim) if m not in ideal.pivots]
        proj = ideal.projection()
        quot = self.in_basis(
            [basis_vec(self.dim, m) for m in keep],
            lambda v: mat_vec(proj, v),
            [self.names[m] for m in keep],
        )
        return quot, proj

    def in_basis(self, vectors, coordinates, names) -> "NilLieAlgebra":
        """The algebra on ``vectors`` whose bracket [u_a, u_b] is read by ``coordinates``.

        A change of basis when coordinates inverts the basis; the quotient
        bracket when vectors are representatives and coordinates projects.
        """
        brackets = {}
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                img = coordinates(self.bracket(vectors[a], vectors[b]))
                terms = [(k, c) for k, c in enumerate(img) if c != 0]
                if terms:
                    brackets[(a, b)] = terms
        return NilLieAlgebra(len(vectors), names, brackets)

    # -- validation -------------------------------------------------------------

    def validate(self) -> "ValidationReport":
        # den^2 times each Jacobi sum, on integer unit vectors: the same zeros.
        unit = identity(self.dim)
        br = self.bracket_int
        violations = []
        for i, j, k in combinations(range(self.dim), 3):
            a, b, c = unit[i], unit[j], unit[k]
            if any(map(sum, zip(br(br(a, b), c), br(br(b, c), a), br(br(c, a), b)))):
                violations.append((i, j, k))
        nilpotent = True
        step = None
        series = None
        if not violations:
            try:
                series = self.lower_central_series()
                step = self.step
            except ValueError:
                nilpotent = False
        return ValidationReport(
            jacobi_ok=not violations,
            jacobi_violations=violations,
            nilpotent=nilpotent,
            step=step,
            series=series,
        )

    # -- group law ---------------------------------------------------------------

    def cbh(self, x, y) -> tuple:
        """log(exp x . exp y) for algebras of step at most three, by ``cbh_int``."""
        if self.step > 3:
            raise ValueError("group law implemented only through step 3")
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector dimension mismatch")
        nums, d = clear_denominators((*x, *y))
        scale = 12 * self._den**2 * d**3
        return tuple(Fraction(v, scale) for v in self.cbh_int(nums[:n], nums[n:], d))

    # -- maps ---------------------------------------------------------------------

    def is_automorphism(self, m) -> bool:
        """Whether m[e_i, e_j] = [m e_i, m e_j] for all i < j; a singular m raises ValueError.

        With m = M / d cleared and C_ij = den [e_i, e_j], that is the integer
        identity d M C_ij = den [M e_i, M e_j].
        """
        rows, d = clear_rows(m)
        if bareiss_det(rows) == 0:
            raise ValueError("map is singular")
        cols = [list(c) for c in zip(*rows)]
        unit = identity(self.dim)
        return all(
            [d * sum(a * b for a, b in zip(row, self.bracket_int(unit[i], unit[j]))) for row in rows]
            == self.bracket_int(cols[i], cols[j])
            for i, j in combinations(range(self.dim), 2)
        )


class ValidationReport(NamedTuple):
    jacobi_ok: bool
    jacobi_violations: list
    nilpotent: bool
    step: int | None
    series: list | None


class SampledVerdict(NamedTuple):
    """Outcome of an exact check on a structured plus sampled set of points."""

    ok: bool
    checked: int
    counterexample: tuple | None = None


def _structured_vectors(dim: int):
    out = [basis_vec(dim, i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(vadd(basis_vec(dim, i), basis_vec(dim, j)))
            out.append(vsub(basis_vec(dim, i), basis_vec(dim, j)))
    return out


def _sample_points(dim: int, n_samples: int, seed: int) -> list:
    """The structured vectors, then n_samples draws from ``Random(seed)``."""
    rng = random.Random(seed)
    return _structured_vectors(dim) + [sample_vector(rng, dim) for _ in range(n_samples)]


def _first_outside_span(a, cols):
    """Index of the first of cols outside the column span of a, or None.

    One integer elimination of [a | cols]: with pivots taken left to right,
    the first pivot past a's columns sits at the first column that lies
    outside the span of a (the columns before it lie inside).
    """
    n = len(a[0])
    aug = [row + [c[k] for c in cols] for k, row in enumerate(a)]
    _, pivots, _ = bareiss_echelon(aug)
    return next((c - n for c in pivots if c >= n), None)


def is_strictly_nonsingular_sampled(
    algebra: NilLieAlgebra, n_samples: int = CERTIFY_SAMPLES, seed: int = DEFAULT_SEED
) -> SampledVerdict:
    """Check z(g) in ad(X)(g) for every sampled noncentral X, exactly.

    Each point is one integer rank test, rank[ad(X) | z] == rank ad(X), on
    the scaled matrix of ``ad_scaled``; X is central exactly when that
    matrix vanishes.  Exact arithmetic means a reported counterexample is a
    genuine one; a passing verdict certifies only the sampled set.
    """
    zbasis = algebra.center().basis()
    zcols = [clear_denominators(z)[0] for z in zbasis]
    checked = 0
    for x in _sample_points(algebra.dim, n_samples, seed):
        adx = algebra.ad_scaled(clear_denominators(x)[0])
        if not any(map(any, adx)):
            continue
        miss = _first_outside_span(adx, zcols)
        if miss is not None:
            return SampledVerdict(ok=False, checked=checked, counterexample=(x, tuple(zbasis[miss])))
        checked += 1
    return SampledVerdict(ok=True, checked=checked)


def find_inner_witness(algebra: NilLieAlgebra, m):
    """Solve [A, e_j] = m(e_j) - e_j for a single A, if possible (step <= 2)."""
    n = algebra.dim
    den = algebra.structure_tensor()[1]
    stacked = []
    rhs = []
    for j in range(n):
        ej = basis_vec(n, j)
        # [A, e_j] = -ad(e_j) A, and ad_scaled(e_j) is den ad(e_j).
        adj = algebra.ad_scaled([int(k == j) for k in range(n)])
        stacked.extend([Fraction(-x, den) for x in row] for row in adj)
        rhs.extend(vsub(vec(mat_vec(m, ej)), ej))
    sol = solve_rational(stacked, rhs)
    if sol is None:
        return None
    return tuple(sol[0])


def is_almost_inner_2step(
    algebra: NilLieAlgebra, m, n_samples: int = CERTIFY_SAMPLES, seed: int = DEFAULT_SEED
) -> SampledVerdict:
    """Per-element conjugacy check for automorphisms of 2-step algebras.

    In a 2-step algebra Ad(exp A) X = X + [A, X], so phi is almost inner
    exactly when phi(X) - X lies in [g, X] = ad(X)g for every X; each
    sample is decided by an integer rank test.
    """
    if algebra.step > 2:
        raise ValueError("almost-inner criterion implemented only for step <= 2")
    if not algebra.is_automorphism(m):
        raise ValueError("map is not an automorphism")
    n = algebra.dim
    # phi - 1 as integers over one denominator.
    shift, _ = clear_rows([[m[i][j] - (i == j) for j in range(n)] for i in range(n)])
    checked = 0
    for x in _sample_points(n, n_samples, seed):
        xs = clear_denominators(x)[0]
        target = [sum(a * b for a, b in zip(row, xs)) for row in shift]
        if any(target) and _first_outside_span(algebra.ad_scaled(xs), [target]) is not None:
            return SampledVerdict(ok=False, checked=checked, counterexample=(x,))
        checked += 1
    return SampledVerdict(ok=True, checked=checked)


def coadjoint_orbit_equal_2step(algebra: NilLieAlgebra, tau1, tau2) -> bool:
    """Orbit equality for functionals on a 2-step algebra.

    The orbit of tau is the affine space tau + {tau o ad(A)}, so membership
    is an exact linear solve.
    """
    if algebra.step > 2:
        raise ValueError("orbit test implemented only for step <= 2")
    # Column a is tau1 o ad(e_a): (tau1 o ad(e_a))(e_j) = tau1([e_a, e_j]).
    form = algebra.form_scaled(clear_denominators(tau1)[0])
    matrix = [list(col) for col in zip(*form)]
    diff = clear_denominators(vsub(vec(tau2), vec(tau1)))[0]
    return _first_outside_span(matrix, [diff]) is None
