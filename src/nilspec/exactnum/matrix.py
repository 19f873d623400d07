"""Exact dense matrix routines over Z and Q.

Matrices are lists of row lists.  There is one forward elimination,
fraction-free (Bareiss) ``bareiss_echelon``, on int matrices only: exact
division is floor division that raises ``ArithmeticError`` on a remainder,
and a non-int entry raises ``TypeError``.  Rationals enter only through
``rref`` and ``bareiss_det``, which scale rows to integers first.

Over Q, ``rref`` clears each row's denominators, runs ``bareiss_echelon`` on
the integer rows, and makes one reduction pass up from the last pivot.
Kernels, particular solutions and inverses are read off that reduced form.
``bareiss_det`` clears the whole matrix over one denominator den and
divides the integer determinant by den^n.  ``pfaffian`` needs no division.
"""

from __future__ import annotations

from fractions import Fraction

from ..vecops import clear_denominators, clear_rows


def dims(m):
    return len(m), len(m[0]) if m else 0


def identity(n: int):
    """The n x n unit matrix, on ints."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


# mat_mul and mat_vec skip each product with a zero factor but the first,
# which keeps an entry's type that of the inputs.
def mat_mul(a, b):
    ca = dims(a)[1]
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError("dimension mismatch in matrix product")
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if k and x]
        out.append([sum((x * b[k][j] for k, x in nz if b[k][j]), row[0] * b[0][j]) for j in range(cb)])
    return out


def mat_vec(a, v):
    nz = [(k, x) for k, x in enumerate(v) if k and x]
    return [sum((row[k] * x for k, x in nz if row[k]), row[0] * v[0]) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]


def bareiss_echelon(m):
    """Fraction-free elimination with column pivoting, on an int matrix.

    Returns (rows, pivot_cols, det) where det is the exact determinant for
    square input (None otherwise).  All divisions are exact by the Sylvester
    identity, so the rows stay on ints; a remainder raises ArithmeticError.
    Any other entry type raises TypeError.
    """
    rows = [list(r) for r in m]
    if not all(type(x) is int for row in rows for x in row):
        raise TypeError("bareiss_echelon takes int entries; clear denominators first")
    nr, nc = dims(rows)
    if nr == 0 or nc == 0:
        return rows, [], 1 if nr == nc else None
    prev = 1
    pivot_cols = []
    sign_flip = False
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign_flip = not sign_flip
        pivot_row = rows[r]
        piv = pivot_row[c]
        for i in range(r + 1, nr):
            row = rows[i]
            head = row[c]
            for j in range(c, nc):
                x = piv * row[j] - head * pivot_row[j]
                q, rem = divmod(x, prev)
                if rem:
                    raise ArithmeticError(f"inexact integer division {x} / {prev}")
                row[j] = q
        prev = piv
        pivot_cols.append(c)
        r += 1
    det = None
    if nr == nc:
        if len(pivot_cols) < nr:
            det = 0
        else:
            det = rows[nr - 1][nc - 1]
            if sign_flip:
                det = -det
    return rows, pivot_cols, det


def bareiss_det(m):
    """Exact determinant of a square int or rational matrix.

    The matrix is cleared over one denominator den, so its determinant is
    the integer one over den^n; int input gives an int.
    """
    nr, nc = dims(m)
    if nr != nc:
        raise ValueError("determinant of a non-square matrix")
    rows, den = clear_rows(m)
    det = bareiss_echelon(rows)[2]
    return det if den == 1 else Fraction(det, den**nr)


def rank_and_kernel(m):
    """Exact rank and a right-kernel basis of a rational matrix.

    The kernel is read off ``rref(m)``: one Fraction vector per free column,
    1 there, 0 at the other free columns.
    """
    rows, pivot_cols = rref(m)
    return len(pivot_cols), _kernel(rows, pivot_cols, dims(m)[1])


def pfaffian(m):
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Recursive expansion along the first row; the standard symplectic block
    diag[[0,1],[-1,0]]^n has Pfaffian +1 under this convention.
    """
    nr, nc = dims(m)
    if nr != nc:
        raise ValueError("pfaffian of a non-square matrix")
    for i in range(nr):
        if m[i][i] != 0:
            raise ValueError("pfaffian requires zero diagonal")
        for j in range(i + 1, nr):
            if m[i][j] + m[j][i] != 0:
                raise ValueError("pfaffian requires a skew-symmetric matrix")
    if nr % 2:
        raise ValueError("pfaffian of an odd-dimensional matrix")
    return _pf_rec(m)


def _pf_rec(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 2:
        return m[0][1]
    acc = None
    for j in range(1, n):
        if m[0][j] == 0:
            continue
        keep = [k for k in range(1, n) if k != j]
        sub = [[m[r][c] for c in keep] for r in keep]
        term = m[0][j] * _pf_rec(sub)
        if j % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return m[0][0] - m[0][0]
    return acc


def rref(m):
    """Reduced row echelon form over the fraction field (Fraction entries).

    Returns (rows, pivot_cols); rows are canonical for the row space.  Each
    row is scaled to integers and ``bareiss_echelon`` eliminates them; its
    row steps are invertible, so the row space is kept.  One pass from the
    last pivot up then divides each pivot row by its pivot and clears the
    column above it.
    """
    echelon, pivot_cols, _ = bareiss_echelon([clear_denominators(r)[0] for r in m])
    rows = echelon[: len(pivot_cols)]
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        piv = rows[r][c]
        row = rows[r] = [Fraction(x, piv) for x in rows[r]]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i][c:] = [x - f * y for x, y in zip(rows[i][c:], row[c:])]
    return rows, pivot_cols


def _kernel(rows, pivot_cols, nc):
    """A kernel basis of reduced rows: one vector per free column below nc."""
    kernel = []
    for fc in (c for c in range(nc) if c not in pivot_cols):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivot_cols):
            v[pc] = -row[fc]
        kernel.append(v)
    return kernel


def solve_rational(a, b):
    """One solution x of a x = b over Q, or None if inconsistent.

    b may be a vector or a matrix of stacked right-hand-side columns.
    Returns (particular, kernel_basis), both read off the reduced form of
    [a | b]: the system is inconsistent when a pivot falls in b.
    """
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if vec else b
    nr, nc = dims(a)
    rows, pivots = rref([[*a[i], *rhs[i]] for i in range(nr)])
    if pivots and pivots[-1] >= nc:
        return None
    nrhs = len(rhs[0])
    part = [[Fraction(0)] * nrhs for _ in range(nc)]
    for row, pc in zip(rows, pivots):
        part[pc] = row[nc:]
    kernel = _kernel(rows, pivots, nc)
    if vec:
        return [row[0] for row in part], kernel
    return part, kernel


def invert_rational(m):
    n, nc = dims(m)
    if n != nc:
        raise ValueError("inverse of a non-square matrix")
    sol = solve_rational(m, identity(n))
    if sol is None:
        raise ValueError("singular matrix")
    part, kernel = sol
    if kernel:
        raise ValueError("singular matrix")
    return part
