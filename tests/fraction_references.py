"""The Fraction implementations the integer structure-constant kernel replaced.

Kept as test references, independent of ``NilLieAlgebra``'s integer tables:
they read only the rational bracket table through ``bracket`` and
``basis_bracket``.

- ``reference_structure_table``: the table ``LatticeSpec`` used to compile for
  itself, [v_a, v_b] in generator coordinates over one denominator.
- ``reference_product_int``: its hand-expanded product formula on that table.
- ``reference_cbh``: the step-3 group law over Fractions.
- ``reference_is_automorphism``: m[e_i, e_j] == [m e_i, m e_j] over Fractions.
"""

from fractions import Fraction

from nilspec.exactnum.matrix import invert_rational, mat_vec
from nilspec.vecops import basis_vec, clear_denominators, vadd, vec, vscale


def reference_structure_table(algebra, gens):
    """([(a, b, k, c)], den): [v_a, v_b] has c / den at v_k, for a < b and c != 0."""
    n = algebra.dim
    to_gen = invert_rational([[g[i] for g in gens] for i in range(n)])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coords = [mat_vec(to_gen, algebra.bracket(gens[a], gens[b])) for a, b in pairs]
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
    xy = algebra.bracket(x, y)
    out = vadd(vadd(x, y), vscale(Fraction(1, 2), xy))
    t1 = algebra.bracket(x, xy)
    t2 = algebra.bracket(y, algebra.bracket(y, x))
    return vadd(out, vscale(Fraction(1, 12), vadd(t1, t2)))


def reference_is_automorphism(algebra, m):
    try:
        invert_rational(m)
    except ValueError:
        raise ValueError("map is singular") from None
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(m, algebra.basis_bracket(i, j))
            rhs = algebra.bracket(
                vec(mat_vec(m, basis_vec(n, i))), vec(mat_vec(m, basis_vec(n, j)))
            )
            if tuple(lhs) != tuple(rhs):
                return False
    return True
