"""Integer and rational lattices: Hermite/Smith normal forms, duals, kernels.

Lattices are stored as generator rows in an ambient Q^n.  The canonical form
is a row-style Hermite normal form of the denominator-cleared matrix, so
lattice equality is literal equality of canonical data.  Membership and
integer feasibility reduce against a Hermite form (``_in_span``), and the
Hermite form of [A^T | I] gives a kernel basis and a complement
(``_kernel_split``).  The Smith form, with both transforms, serves only the
particular solution of ``solve_integer``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..vecops import clear_denominators, clear_rows
from .matrix import identity, invert_rational, transpose


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _require_ints(rows, name):
    """Raise TypeError unless every entry is an int, not a bool or a Fraction."""
    if any(type(x) is not int for r in rows for x in r):
        raise TypeError(f"{name} takes int entries; clear denominators first")


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Zero rows are dropped; pivots are positive and entries above each pivot
    are reduced into [0, pivot).  The result is the unique canonical basis
    of the row lattice.  Any entry that is not an int (a bool included)
    raises TypeError.
    """
    _require_ints(rows, "hnf")
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in work:
        vec = vec.copy()
        for j in range(ncols):
            if vec[j] == 0:
                continue
            if j not in pivots:
                pos = next((i for i, p in enumerate(pivots) if p > j), len(pivots))
                basis.insert(pos, vec)
                pivots.insert(pos, j)
                break
            row = basis[pivots.index(j)]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, ncols):
                    vec[k] -= q * row[k]
            else:
                # Both vectors vanish before column j, so the gcd combination
                # keeps the echelon shape.
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, ncols):
                    ra, rb = row[k], vec[k]
                    row[k] = x * ra + y * rb
                    vec[k] = -bg * ra + ag * rb
    # Positive pivots, then reduce above.
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        if row[j] < 0:
            for k in range(ncols):
                row[k] = -row[k]
    for i in range(len(basis)):
        j = next(k for k, x in enumerate(basis[i]) if x)
        p = basis[i][j]
        for r in range(i):
            q = basis[r][j] // p
            if q:
                for k in range(ncols):
                    basis[r][k] -= q * basis[i][k]
    return basis


def _in_span(rows, vec) -> bool:
    """Whether the integer vector vec lies in the Z-span of the HNF rows."""
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        if vec[j] == 0:
            continue
        if vec[j] % row[j]:
            return False
        q = vec[j] // row[j]
        vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


def integer_solvable(mat, rhs) -> bool:
    """Whether mat.x = rhs has a solution x in Z^n, for integer mat and rhs.

    Feasibility only, on a Hermite form: rhs must lie in the Z-span of the
    columns of mat, which is the row lattice of hnf(mat^T) (Cohen, A Course
    in Computational Algebraic Number Theory, 1993, 2.4.3).  Use
    ``solve_integer`` for the solution itself.
    """
    nc = len(mat[0]) if mat else 0
    return _in_span(hnf([[row[j] for row in mat] for j in range(nc)]), rhs)


def snf(mat):
    """Smith normal form with transforms: returns (s, u, v) with u*m*v = s.

    s is diagonal (as a rectangular matrix) with s[i] | s[i+1]; u and v are
    unimodular.  Any entry that is not an int raises TypeError, as in `hnf`.
    """
    _require_ints(mat, "snf")
    m = [list(r) for r in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        for k in range(nc):
            m[dst][k] += f * m[src][k]
        for k in range(nr):
            u[dst][k] += f * u[src][k]

    def addmul_col(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(nr, nc):
        # Find a nonzero entry to pivot.
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j]:
                    if piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    addmul_row(i, t, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    addmul_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # Divisibility fix-up: fold any non-multiple into the pivot.
        stray = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            addmul_row(t, stray, 1)
            continue
        if m[t][t] < 0:
            addmul_row(t, t, -2)
        t += 1
    return m, u, v


def _kernel_split(mat, nc):
    """Z-bases (kernel of mat, complement) of Z^nc, from one Hermite form.

    hnf([mat^T | I]) is T [mat^T | I] for a unimodular T, so its right
    halves are a basis of Z^nc; the rows whose mat^T half is zero are a
    kernel basis, the others a complement (Cohen 1993, 2.4).  Euclid's
    quotients, and so T, are the same for every positive multiple of mat.
    """
    nr = len(mat)
    rows = hnf([[row[j] for row in mat] + [int(i == j) for i in range(nc)] for j in range(nc)])
    return [r[nr:] for r in rows if not any(r[:nr])], [r[nr:] for r in rows if any(r[:nr])]


def integer_kernel(mat):
    """Z-basis of {x in Z^n : mat. x = 0} for an integer matrix."""
    return _kernel_split(mat, len(mat[0]) if mat else 0)[0]


def solve_integer(mat, rhs):
    """One x in Z^n with mat.x = rhs, or None.  rhs entries are ints."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    if nr == 0:
        return [0] * nc
    s, u, v = snf(mat)
    w = [sum(u[i][k] * rhs[k] for k in range(nr)) for i in range(nr)]
    y = [0] * nc
    for i in range(min(nr, nc)):
        if s[i][i]:
            if w[i] % s[i][i]:
                return None
            y[i] = w[i] // s[i][i]
        elif w[i]:
            return None
    for i in range(min(nr, nc), nr):
        if w[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(nc)) for i in range(nc)]


class IntLattice:
    """Finitely generated subgroup of Q^n, canonicalized via HNF."""

    __slots__ = ("ambient", "den", "rows")

    def __init__(self, ambient: int, generators):
        self.ambient = ambient
        scaled, den = clear_rows(generators)
        if any(len(g) != ambient for g in scaled):
            raise ValueError("generator dimension mismatch")
        basis = hnf(scaled)
        # Normalize the scale so the representation is unique.
        g_all = den
        for row in basis:
            for x in row:
                g_all = gcd(g_all, x)
        if basis and g_all > 1:
            den //= g_all
            basis = [[x // g_all for x in row] for row in basis]
        self.den = den
        self.rows = tuple(tuple(r) for r in basis)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_vectors(self):
        return [[Fraction(x, self.den) for x in row] for row in self.rows]

    def member(self, v) -> bool:
        return self.member_scaled(*clear_denominators(v))

    def member_scaled(self, num, den) -> bool:
        """Membership of num / den, for integers num over a positive den."""
        vec = [x * self.den for x in num]
        if any(x % den for x in vec):
            return False
        return _in_span(self.rows, [x // den for x in vec])

    def __eq__(self, other):
        if not isinstance(other, IntLattice):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.den, self.rows))

    def dual(self) -> "IntLattice":
        """Dual lattice of a full-rank lattice: basis rows of (B^T)^{-1}."""
        if self.rank != self.ambient:
            raise ValueError("dual lattice requires full rank")
        binv = invert_rational([list(r) for r in self.basis_vectors()])
        return IntLattice(self.ambient, transpose(binv))

    def intersect_kernel(self, mat):
        """Sublattice {v in L : mat.v = 0} plus a complement basis.

        mat is an integer matrix acting on Q^n.  Returns (kernel, complement)
        as integer rows over ``self.den`` (the vector is row / den); the
        complement rows map to a Z-basis of L / (L cap ker mat).  Scaling
        mat by a positive integer leaves both unchanged.
        """
        if not self.rows:
            return [], []
        prod = [[sum(a * b for a, b in zip(mrow, row)) for row in self.rows] for mrow in mat]
        kernel, compl = _kernel_split(prod, self.rank)

        def combine(coords):
            return [
                [sum(c * row[k] for c, row in zip(cs, self.rows)) for k in range(self.ambient)]
                for cs in coords
            ]

        return combine(kernel), combine(compl)

    def __repr__(self):
        return f"IntLattice(dim={self.ambient}, rank={self.rank}, den={self.den})"

