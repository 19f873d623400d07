"""The Fraction implementations the integer structure-constant kernel replaced.

Kept as test references, independent of ``NilLieAlgebra``'s integer tables:
they read the structure constants as Fractions off ``json_writers.algebra_json``.

- ``reference_bracket`` and ``reference_ad_matrix``: the Fraction bracket
  loop ``NilLieAlgebra`` used to run over its own Fraction table, and ad(x)
  with columns [x, e_j].
- ``reference_jacobi_violations``: the Jacobi check ``validate`` used to run
  on that bracket.
- ``reference_structure_table``: the table ``LatticeSpec`` used to compile for
  itself, [v_a, v_b] in generator coordinates over one denominator.
- ``reference_product_int``: its hand-expanded product formula on that table.
- ``reference_cbh``: the step-3 group law over Fractions.
- ``reference_is_automorphism``: m[e_i, e_j] == [m e_i, m e_j] over Fractions.

And the subspace routines ``Subspace`` replaced with its own echelon form:

- ``reference_intersection``: A cap B from the rational kernel of
  [A^T | -B^T], recombined over A's rows.
- ``reference_quotient``: ``NilLieAlgebra.quotient`` with its second reduced
  form of the ideal and its own reduction loop.
- ``reference_splits``: ``LatticeSpec.log_cover_lattice``'s split check,
  through the quotient algebra's projection.

And ``cofactor_det``, the determinant by expansion in minors: it needs no
division, so it checks the eliminations over any commutative ring.

And the Gauss-Jordan elimination that ``rref`` ran before it was built on
``bareiss_echelon``: ``reference_rref``, and ``reference_solve``, the solve
read off it.

And helpers with no caller in the package:

- ``is_square_integrable``: nondegeneracy of tau([.,.]) on g modulo its
  center, as a rank over Fractions on the reference bracket.
- ``vzero``, ``vneg`` and ``assemble``: the zero vector, a negated vector,
  and the log of a word in a lattice's generators.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from nilspec.exactnum import rat_from_str
from nilspec.exactnum.matrix import dims, invert_rational, mat_vec, solve_rational
from nilspec.liealg import Subspace
from nilspec.vecops import basis_vec, clear_denominators, is_zero_vec, vadd, vec, vscale

from json_writers import algebra_json


@lru_cache(maxsize=None)
def reference_table(algebra):
    """((i, j), ((k, c), ...)) for each listed pair, c a Fraction, read off ``algebra_json``."""
    return tuple(
        ((i, j), tuple((k, rat_from_str(c)) for k, c in terms))
        for i, j, terms in algebra_json(algebra)["brackets"]
    )


def reference_bracket(algebra, x, y):
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise ValueError("vector dimension mismatch")
    out = [Fraction(0)] * algebra.dim
    for (i, j), terms in reference_table(algebra):
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, c in terms:
                out[k] += f * c
    return tuple(out)


def reference_ad_matrix(algebra, x):
    """Matrix of ad(x): columns are [x, e_j]."""
    n = algebra.dim
    cols = [reference_bracket(algebra, x, basis_vec(n, j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def reference_jacobi_violations(algebra):
    n = algebra.dim

    def br(x, y):
        return reference_bracket(algebra, x, y)

    violations = []
    for i, j, k in combinations(range(n), 3):
        ei, ej, ek = (basis_vec(n, t) for t in (i, j, k))
        s = vadd(vadd(br(br(ei, ej), ek), br(br(ej, ek), ei)), br(br(ek, ei), ej))
        if not is_zero_vec(s):
            violations.append((i, j, k))
    return violations


def reference_structure_table(algebra, gens):
    """([(a, b, k, c)], den): [v_a, v_b] has c / den at v_k, for a < b and c != 0."""
    n = algebra.dim
    to_gen = invert_rational([[g[i] for g in gens] for i in range(n)])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coords = [mat_vec(to_gen, reference_bracket(algebra, gens[a], gens[b])) for a, b in pairs]
    nums, den = clear_denominators(x for c in coords for x in c)
    table = [
        (a, b, k, nums[p * n + k])
        for p, (a, b) in enumerate(pairs)
        for k in range(n)
        if nums[p * n + k]
    ]
    return table, den


def reference_product_int(table, den, n, i, j):
    """B = [v_i, v_j] over den and log(exp v_i exp v_j) = v_i + v_j + B/2 +
    ([v_i, B] - [v_j, B]) / 12 over 12 den^2, both in generator coordinates."""
    ad = [[] for _ in range(n)]
    for a, b, k, c in table:
        ad[a].append((b, k, c))
        ad[b].append((a, k, -c))

    def ad_int(i, x):
        out = [0] * n
        for b, k, c in ad[i]:
            out[k] += c * x[b]
        return out

    brk = ad_int(i, [int(k == j) for k in range(n)])
    prod = [6 * den * b + x - y for b, x, y in zip(brk, ad_int(i, brk), ad_int(j, brk))]
    prod[i] += 12 * den * den
    prod[j] += 12 * den * den
    return brk, prod


def reference_cbh(algebra, x, y):
    """log(exp x . exp y) for algebras of step at most three."""
    if algebra.step > 3:
        raise ValueError("group law implemented only through step 3")
    xy = reference_bracket(algebra, x, y)
    out = vadd(vadd(x, y), vscale(Fraction(1, 2), xy))
    t1 = reference_bracket(algebra, x, xy)
    t2 = reference_bracket(algebra, y, reference_bracket(algebra, y, x))
    return vadd(out, vscale(Fraction(1, 12), vadd(t1, t2)))


def reference_is_automorphism(algebra, m):
    try:
        invert_rational(m)
    except ValueError:
        raise ValueError("map is singular") from None
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(m, reference_bracket(algebra, basis_vec(n, i), basis_vec(n, j)))
            rhs = reference_bracket(
                algebra, vec(mat_vec(m, basis_vec(n, i))), vec(mat_vec(m, basis_vec(n, j)))
            )
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def reference_intersection(a, b):
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    if not a.rows or not b.rows:
        return Subspace(a.ambient, [])
    # v = x.A = y.B: kernel of [A^T | -B^T].
    cols = [[row[k] for row in a.rows] + [-row[k] for row in b.rows] for k in range(a.ambient)]
    _, kernel = solve_rational(cols, [Fraction(0)] * a.ambient)
    vecs = []
    for kv in kernel:
        v = vzero(a.ambient)
        for c, row in zip(kv[: len(a.rows)], a.rows):
            v = vadd(v, vscale(c, row))
        vecs.append(v)
    return Subspace(a.ambient, vecs)


def reference_quotient(algebra, ideal):
    """(quotient algebra, projection matrix) by an ideal."""
    if not algebra.is_ideal(ideal):
        raise ValueError("subspace is not an ideal")
    n = algebra.dim
    rows, pivots = reference_rref([list(r) for r in ideal.rows] or [[Fraction(0)] * n])
    keep = [m for m in range(n) if m not in pivots]

    def project(v):
        work = list(v)
        for row, p in zip(rows, pivots):
            if work[p]:
                f = work[p]
                work = [a - f * b for a, b in zip(work, row)]
        return tuple(work[m] for m in keep)

    proj = [list(project(basis_vec(n, j))) for j in range(n)]
    proj_matrix = [[proj[j][i] for j in range(n)] for i in range(len(keep))]
    quot = algebra.in_basis(
        [basis_vec(n, m) for m in keep], project, [algebra.names[m] for m in keep]
    )
    return quot, proj_matrix


def reference_splits(algebra, subspace, generators):
    """Whether the generators outside an ideal stay independent modulo it."""
    outside = [g for g in generators if not subspace.contains(g)]
    if not outside:
        return True
    quot_alg, proj = reference_quotient(algebra, subspace)
    images = [tuple(mat_vec(proj, g)) for g in outside]
    return Subspace(quot_alg.dim, images).dim == len(outside)


def cofactor_det(m):
    """Expansion by minors; reference oracle for small matrices."""
    nr, nc = dims(m)
    if nr != nc:
        raise ValueError("determinant of a non-square matrix")
    if nr == 0:
        return Fraction(1)
    if nr == 1:
        return m[0][0]
    acc = None
    for j in range(nc):
        if m[0][j] == 0:
            continue
        sub = [[row[k] for k in range(nc) if k != j] for row in m[1:]]
        term = m[0][j] * cofactor_det(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return m[0][0] - m[0][0]
    return acc


def reference_rref(m):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions.

    Returns (rows, pivot_cols); rows are canonical for the row space.
    """
    rows = [[Fraction(x) for x in r] for r in m]
    nr, nc = dims(rows)
    pivot_cols = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows[: len(pivot_cols)], pivot_cols


def reference_solve(a, b):
    """(particular, kernel basis) of a x = b over Q, or None if inconsistent.

    b is a vector or a matrix of stacked right-hand-side columns.
    """
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if vec else [list(r) for r in b]
    nr, nc = dims(a)
    aug = [list(map(Fraction, a[i])) + list(map(Fraction, rhs[i])) for i in range(nr)]
    rows, pivots = reference_rref(aug)
    if any(pc >= nc for pc in pivots):
        return None
    nrhs = len(rhs[0])
    part = [[Fraction(0)] * nrhs for _ in range(nc)]
    for i, pc in enumerate(pivots):
        for j in range(nrhs):
            part[pc][j] = rows[i][nc + j]
    kernel = []
    for fc in [c for c in range(nc) if c not in pivots]:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        kernel.append(v)
    if vec:
        return [row[0] for row in part], kernel
    return part, kernel


def is_square_integrable(algebra, tau) -> bool:
    """Nondegeneracy of tau([.,.]) on g modulo its center.

    The center lies in the form's radical, so the form is nondegenerate on
    g / z exactly when its rank is dim g - dim z, and g / z is not zero.
    """
    n = algebra.dim
    form = [
        [sum(t * x for t, x in zip(tau, reference_bracket(algebra, basis_vec(n, i), basis_vec(n, j))))
         for j in range(n)]
        for i in range(n)
    ]
    off_center = n - algebra.center().dim
    return off_center > 0 and len(reference_rref(form)[1]) == off_center


def vzero(n: int) -> tuple:
    return tuple([Fraction(0)] * n)


def vneg(a) -> tuple:
    return tuple(-x for x in a)


def assemble(spec, coords):
    """log of the word exp(t_1 v_1)...exp(t_n v_n) in the spec's generators."""
    w = vzero(spec.algebra.dim)
    for t, g in zip(coords, spec.generators):
        if t:
            w = spec.algebra.cbh(w, vscale(t, g))
    return w
