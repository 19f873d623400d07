"""Nilpotent Lie algebras over Q.

Brackets, lower central series, centers and centralizers, quotients, the
truncated group law in logarithmic coordinates, and the exact sampling
checks used by the certification layer.  Vectors are tuples of Fractions in
the structure basis; linear maps are row-major matrices sending coordinate
columns to coordinate columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import rat_from_str, rat_to_str
from .exactnum.matrix import invert_rational, mat_vec, rref, solve_rational
from .vecops import basis_vec, is_zero_vec, vadd, vec, vscale, vsub, vzero

DEFAULT_SEED = 1729
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
    """Subspace of Q^n in canonical reduced row form."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, vectors):
        self.ambient = ambient
        rows, _ = rref([list(v) for v in vectors] or [[Fraction(0)] * ambient])
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        work = list(v)
        for row in self.rows:
            p = next(i for i, x in enumerate(row) if x)
            if work[p]:
                f = work[p]
                work = [a - f * b for a, b in zip(work, row)]
        return is_zero_vec(work)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def basis(self):
        return [tuple(r) for r in self.rows]

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if not self.rows or not other.rows:
            return Subspace(self.ambient, [])
        # v = x.A = y.B: kernel of [A^T | -B^T].
        cols = []
        for k in range(self.ambient):
            cols.append(
                [row[k] for row in self.rows] + [-row[k] for row in other.rows]
            )
        _, kernel = solve_rational(cols, [Fraction(0)] * self.ambient)
        vecs = []
        for kv in kernel:
            v = vzero(self.ambient)
            for c, row in zip(kv[: len(self.rows)], self.rows):
                v = vadd(v, vscale(c, row))
            vecs.append(v)
        return Subspace(self.ambient, vecs)

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
        """brackets: mapping (i, j) with i < j to a list of (k, Fraction)."""
        self.dim = dim
        self.names = list(names)
        if len(self.names) != dim:
            raise ValueError("need one name per basis vector")
        table = {}
        for (i, j), terms in brackets.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            cleaned = [(k, Fraction(c)) for k, c in terms if Fraction(c) != 0]
            if cleaned:
                table[(i, j)] = tuple(cleaned)
        self._table = table
        self._series = None
        self._center = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_json(data: dict) -> "NilLieAlgebra":
        brackets = {}
        for i, j, terms in data["brackets"]:
            brackets[(i, j)] = [(k, rat_from_str(c)) for k, c in terms]
        return NilLieAlgebra(data["dim"], data["names"], brackets)

    def to_json(self) -> dict:
        out = []
        for (i, j), terms in sorted(self._table.items()):
            out.append([i, j, [[k, rat_to_str(c)] for k, c in terms]])
        return {"dim": self.dim, "names": self.names, "brackets": out}

    # -- bracket and series ----------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> tuple:
        out = vzero(self.dim)
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        terms = self._table.get((i, j))
        if not terms:
            return out
        lst = list(out)
        for k, c in terms:
            lst[k] += sign * c
        return tuple(lst)

    def bracket(self, x, y) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension mismatch")
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self._table.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                for k, c in terms:
                    out[k] += f * c
        return tuple(out)

    def ad_matrix(self, x):
        """Matrix of ad(x): columns are [x, e_j]."""
        cols = [self.bracket(x, basis_vec(self.dim, j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

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
        guard = 0
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
            guard += 1
            if guard > self.dim + 1:
                raise ValueError("lower central series does not terminate")
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
        if self._center is not None:
            return self._center
        stacked = []
        for j in range(self.dim):
            adj = self.ad_matrix(basis_vec(self.dim, j))
            stacked.extend(adj)
        _, kernel = solve_rational(stacked, [Fraction(0)] * len(stacked))
        self._center = Subspace(self.dim, [vec(v) for v in kernel])
        return self._center

    def centralizer(self, sub: Subspace) -> Subspace:
        basis = sub.basis()
        if not basis:
            return Subspace(self.dim, [basis_vec(self.dim, i) for i in range(self.dim)])
        stacked = []
        for b in basis:
            adb = self.ad_matrix(tuple(b))
            # [v, b] = -ad(b) v
            stacked.extend(adb)
        _, kernel = solve_rational(stacked, [Fraction(0)] * len(stacked))
        return Subspace(self.dim, [vec(v) for v in kernel])

    def is_ideal(self, sub: Subspace) -> bool:
        return all(
            sub.contains(self.bracket(basis_vec(self.dim, i), b))
            for i in range(self.dim)
            for b in sub.basis()
        )

    def quotient(self, ideal: Subspace):
        """Quotient algebra by an ideal plus the projection matrix."""
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        rows, pivots = rref([list(r) for r in ideal.rows] or [[Fraction(0)] * self.dim])
        keep = [m for m in range(self.dim) if m not in pivots]
        qdim = len(keep)

        def project(v):
            work = list(v)
            for row, p in zip(rows, pivots):
                if work[p]:
                    f = work[p]
                    work = [a - f * b for a, b in zip(work, row)]
            return tuple(work[m] for m in keep)

        proj = [
            list(project(basis_vec(self.dim, j)))
            for j in range(self.dim)
        ]
        proj_matrix = [[proj[j][i] for j in range(self.dim)] for i in range(qdim)]
        brackets = {}
        for a in range(qdim):
            for b in range(a + 1, qdim):
                img = project(self.basis_bracket(keep[a], keep[b]))
                terms = [(k, c) for k, c in enumerate(img) if c != 0]
                if terms:
                    brackets[(a, b)] = terms
        names = [self.names[m] for m in keep]
        return NilLieAlgebra(qdim, names, brackets), proj_matrix

    # -- validation -------------------------------------------------------------

    def validate(self) -> "ValidationReport":
        violations = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    ei, ej, ek = (basis_vec(n, t) for t in (i, j, k))
                    s = vadd(
                        vadd(
                            self.bracket(self.bracket(ei, ej), ek),
                            self.bracket(self.bracket(ej, ek), ei),
                        ),
                        self.bracket(self.bracket(ek, ei), ej),
                    )
                    if not is_zero_vec(s):
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
        """log(exp x . exp y) for algebras of step at most three."""
        if self.step > 3:
            raise ValueError("group law implemented only through step 3")
        xy = self.bracket(x, y)
        out = vadd(vadd(x, y), vscale(Fraction(1, 2), xy))
        t1 = self.bracket(x, xy)
        t2 = self.bracket(y, self.bracket(y, x))
        out = vadd(out, vscale(Fraction(1, 12), vadd(t1, t2)))
        return out

    # -- maps ---------------------------------------------------------------------

    def is_automorphism(self, m) -> bool:
        try:
            invert_rational(m)
        except ValueError:
            raise ValueError("map is singular") from None
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                lhs = mat_vec(m, self.basis_bracket(i, j))
                rhs = self.bracket(
                    vec(mat_vec(m, basis_vec(n, i))), vec(mat_vec(m, basis_vec(n, j)))
                )
                if tuple(lhs) != tuple(rhs):
                    return False
        return True


@dataclass
class ValidationReport:
    jacobi_ok: bool
    jacobi_violations: list
    nilpotent: bool
    step: int | None
    series: list | None


@dataclass
class SampledVerdict:
    """Outcome of an exact check on a structured plus sampled set of points."""

    ok: bool
    checked: int
    counterexample: tuple | None = None
    witness: tuple | None = None
    seed: int = DEFAULT_SEED
    notes: list = field(default_factory=list)


def _structured_vectors(dim: int):
    out = [basis_vec(dim, i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(vadd(basis_vec(dim, i), basis_vec(dim, j)))
            out.append(vsub(basis_vec(dim, i), basis_vec(dim, j)))
    return out


def is_strictly_nonsingular_sampled(
    algebra: NilLieAlgebra, n_samples: int = 1000, seed: int = DEFAULT_SEED
) -> SampledVerdict:
    """Check z(g) in ad(X)(g) for every sampled noncentral X, exactly.

    Exact arithmetic means a reported counterexample is a genuine one; a
    passing verdict certifies only the sampled set.
    """
    center = algebra.center()
    zbasis = center.basis()
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]
    checked = 0
    for x in pts:
        if center.contains(x):
            continue
        adx = algebra.ad_matrix(x)
        for z in zbasis:
            if solve_rational(adx, list(z)) is None:
                return SampledVerdict(
                    ok=False, checked=checked, counterexample=(x, tuple(z)), seed=seed
                )
        checked += 1
    return SampledVerdict(ok=True, checked=checked, seed=seed)


def find_inner_witness(algebra: NilLieAlgebra, m):
    """Solve [A, e_j] = m(e_j) - e_j for a single A, if possible (step <= 2)."""
    n = algebra.dim
    stacked = []
    rhs = []
    for j in range(n):
        ej = basis_vec(n, j)
        adj = algebra.ad_matrix(ej)
        # [A, e_j] = -ad(e_j) A.
        stacked.extend([[-x for x in row] for row in adj])
        rhs.extend(vsub(vec(mat_vec(m, ej)), ej))
    sol = solve_rational(stacked, rhs)
    if sol is None:
        return None
    return tuple(sol[0])


def is_almost_inner_2step(
    algebra: NilLieAlgebra, m, n_samples: int = 200, seed: int = DEFAULT_SEED
) -> SampledVerdict:
    """Per-element conjugacy check for automorphisms of 2-step algebras.

    In a 2-step algebra Ad(exp A) X = X + [A, X], so phi is almost inner
    exactly when phi(X) - X lies in [g, X] for every X; each sample is
    decided by an exact linear solve and comes with its own witness A.
    """
    if algebra.step > 2:
        raise ValueError("almost-inner criterion implemented only for step <= 2")
    if not algebra.is_automorphism(m):
        raise ValueError("map is not an automorphism")
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]
    checked = 0
    last_witness = None
    for x in pts:
        target = vsub(vec(mat_vec(m, x)), x)
        if is_zero_vec(target):
            checked += 1
            continue
        adx = algebra.ad_matrix(x)
        neg = [[-v for v in row] for row in adx]
        sol = solve_rational(neg, list(target))
        if sol is None:
            return SampledVerdict(
                ok=False, checked=checked, counterexample=(x,), seed=seed
            )
        last_witness = (x, tuple(sol[0]))
        checked += 1
    verdict = SampledVerdict(ok=True, checked=checked, seed=seed)
    global_witness = find_inner_witness(algebra, m)
    if global_witness is not None:
        verdict.witness = global_witness
        verdict.notes.append("inner: single conjugator works for every sample")
    elif last_witness is not None:
        verdict.witness = last_witness[1]
    return verdict


def coadjoint_orbit_equal_2step(algebra: NilLieAlgebra, tau1, tau2) -> bool:
    """Orbit equality for functionals on a 2-step algebra.

    The orbit of tau is the affine space tau + {tau o ad(A)}, so membership
    is an exact linear solve.
    """
    if algebra.step > 2:
        raise ValueError("orbit test implemented only for step <= 2")
    n = algebra.dim
    cols = []
    for a in range(n):
        ada = algebra.ad_matrix(basis_vec(n, a))
        # (tau o ad(e_a))(e_j) = tau([e_a, e_j]).
        col = [
            sum(Fraction(tau1[k]) * ada[k][j] for k in range(n)) for j in range(n)
        ]
        cols.append(col)
    matrix = [[cols[a][j] for a in range(n)] for j in range(n)]
    diff = vsub(vec(tau2), vec(tau1))
    return solve_rational(matrix, list(diff)) is not None


def singular_locus_sampled(
    algebra: NilLieAlgebra, n_samples: int = 300, seed: int = DEFAULT_SEED
):
    """Span of sampled directions where ad drops below its generic rank.

    Returns (subspace, generic_rank, verified) where verified means every
    structured and sampled point of the span also has degenerate ad.  The
    computation is a sampled description of a rank stratum, so it is used
    for reporting and cross-checks, never as a soundness-bearing constraint.
    """
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]

    def ad_rank(x):
        _, pivots = rref(algebra.ad_matrix(x))
        return len(pivots)

    generic = max(ad_rank(x) for x in pts)
    degenerate = [x for x in pts if ad_rank(x) < generic]
    span = Subspace(algebra.dim, degenerate)
    verified = True
    combos = [vadd(a, b) for a in span.basis() for b in span.basis()]
    for _ in range(50):
        acc = vzero(algebra.dim)
        for bv in span.basis():
            acc = vadd(acc, vscale(sample_fraction(rng), bv))
        combos.append(acc)
    for x in combos:
        if ad_rank(tuple(x)) >= generic and not is_zero_vec(x):
            verified = False
            break
    return span, generic, verified
