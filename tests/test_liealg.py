import random
from fractions import Fraction

import pytest

from nilspec.liealg import (
    NilLieAlgebra,
    DEFAULT_SEED,
    Subspace,
    _structured_vectors,
    coadjoint_orbit_equal_2step,
    find_inner_witness,
    is_almost_inner_2step,
    is_strictly_nonsingular_sampled,
    sample_fraction,
    sample_vector,
)
from nilspec.exactnum.matrix import identity, mat_vec
from nilspec.vecops import basis_vec, is_zero_vec, vadd, vscale, vsub

from fraction_references import reference_ad_matrix, reference_rref, vneg, vzero
from json_writers import algebra_json

F = Fraction


def e(n, i):
    return basis_vec(n, i)


def test_bracket_tables(dim7, dim5):
    # [X1, Y1] = Z1 in the 7-dim algebra.
    assert dim7.bracket(e(7, 0), e(7, 2)) == e(7, 4)
    # [X, X] = 0.
    assert dim7.bracket(e(7, 0), e(7, 0)) == vzero(7)
    # [X1, Z] = W in the 5-dim algebra.
    assert dim5.bracket(e(5, 0), e(5, 3)) == e(5, 4)
    # [Y1, Y2] = W.
    assert dim5.bracket(e(5, 1), e(5, 2)) == e(5, 4)


def test_validate_dim7(dim7):
    report = dim7.validate()
    assert report.jacobi_ok and report.nilpotent
    assert report.step == 3
    assert dim7.derived(2) == Subspace(7, [e(7, 6)])
    assert dim7.derived(1) == Subspace(7, [e(7, 4), e(7, 5), e(7, 6)])


def test_validate_dim5(dim5):
    report = dim5.validate()
    assert report.jacobi_ok and report.step == 3
    assert dim5.derived(1) == Subspace(5, [e(5, 3), e(5, 4)])


def test_validate_abelian():
    ab = NilLieAlgebra(3, ["a", "b", "c"], {})
    report = ab.validate()
    assert report.jacobi_ok and report.step == 1
    assert ab.derived(1).dim == 0


def test_validate_reports_jacobi_violation():
    bad = NilLieAlgebra(
        3,
        ["a", "b", "c"],
        {(0, 1): [(2, F(1))], (0, 2): [(0, F(1))]},
    )
    report = bad.validate()
    assert not report.jacobi_ok
    assert report.jacobi_violations


def test_center_and_centralizer(dim7, dim5):
    assert dim7.center() == Subspace(7, [e(7, 6)])
    assert dim5.center() == Subspace(5, [e(5, 4)])
    # Centralizer of g^(1) in the 5-dim algebra: span{Y1, Y2, Z, W}.
    cz = dim5.centralizer(dim5.derived(1))
    assert cz == Subspace(5, [e(5, 1), e(5, 2), e(5, 3), e(5, 4)])


def test_quotient_dim7(dim7):
    quot, proj = dim7.quotient(dim7.derived(2))
    assert quot.dim == 6
    assert quot.step == 2
    # Surviving brackets: [X1,Y1]=[X2,Y2]=Z1, [X1,Y2]=Z2, [Y1,Y2]=0.
    assert quot.bracket(e(6, 0), e(6, 2)) == e(6, 4)
    assert quot.bracket(e(6, 1), e(6, 3)) == e(6, 4)
    assert quot.bracket(e(6, 0), e(6, 3)) == e(6, 5)
    assert quot.bracket(e(6, 2), e(6, 3)) == vzero(6)
    # Projection is a Lie homomorphism on all basis pairs.
    for i in range(7):
        for j in range(i + 1, 7):
            lhs = mat_vec(proj, dim7.basis_bracket(i, j))
            rhs = quot.bracket(
                tuple(mat_vec(proj, e(7, i))), tuple(mat_vec(proj, e(7, j)))
            )
            assert tuple(lhs) == tuple(rhs)


def test_quotient_rejects_non_ideal(dim7):
    with pytest.raises(ValueError):
        dim7.quotient(Subspace(7, [e(7, 0)]))


def test_cbh_basics(dim7, dim5):
    x = (F(1), F(2), F(0), F(1, 2), F(0), F(3), F(1))
    assert dim7.cbh(x, vneg(x)) == vzero(7)
    ab = NilLieAlgebra(3, ["a", "b", "c"], {})
    u, v = (F(1), F(0), F(2)), (F(0), F(1), F(5))
    assert ab.cbh(u, v) == vadd(u, v)
    # cbh(2X1, Y1) = 2X1 + Y1 + Z + W/3 in the 5-dim algebra.
    got = dim5.cbh(vscale(2, e(5, 0)), e(5, 1))
    assert got == (F(2), F(1), F(0), F(1), F(1, 3))


def test_cbh_rejects_step4():
    one = F(1)
    # Filiform 4-step algebra on (a, b, c, d, e): [a,b]=c, [a,c]=d, [a,d]=e.
    alg = NilLieAlgebra(
        5,
        ["a", "b", "c", "d", "e"],
        {(0, 1): [(2, one)], (0, 2): [(3, one)], (0, 3): [(4, one)]},
    )
    assert alg.step == 4
    with pytest.raises(ValueError):
        alg.cbh(e(5, 0), e(5, 1))


def test_cbh_associative_and_cancellative(dim7, dim5):
    rng = random.Random(99)
    for alg in (dim7, dim5):
        for _ in range(200):
            x = sample_vector(rng, alg.dim)
            y = sample_vector(rng, alg.dim)
            z = sample_vector(rng, alg.dim)
            assert alg.cbh(alg.cbh(x, y), z) == alg.cbh(x, alg.cbh(y, z))
            assert alg.cbh(x, alg.cbh(vneg(x), y)) == y


def test_is_automorphism(dim7):
    assert dim7.is_automorphism(identity(7))
    with pytest.raises(ValueError):
        dim7.is_automorphism([[F(0)] * 7 for _ in range(7)])


def example_v_map():
    cols = {
        0: {0: F(-1), 1: F(1), 2: F(1, 4), 3: F(1, 2)},
        1: {1: F(1), 2: F(-1, 2), 4: F(1, 4)},
        2: {2: F(-1)},
        3: {2: F(2), 3: F(1), 5: F(1)},
        4: {4: F(1), 6: F(1, 2)},
        5: {4: F(-1), 5: F(-1), 6: F(1, 4)},
        6: {6: F(-1)},
    }
    m = [[F(0)] * 7 for _ in range(7)]
    for j, col in cols.items():
        for i, v in col.items():
            m[i][j] = v
    return m


def test_example_v_automorphism(dim7):
    m = example_v_map()
    assert dim7.is_automorphism(m)
    # Perturbing the Z1 column (dropping its W-component) breaks it.
    bad = [row.copy() for row in m]
    bad[6][4] = F(0)
    assert not dim7.is_automorphism(bad)


def test_strict_nonsingularity(dim7, dim5, heis_line):
    for alg in (dim7, dim5):
        verdict = is_strictly_nonsingular_sampled(alg, n_samples=1000)
        assert verdict.ok
        assert verdict.checked >= 1000
    bad = is_strictly_nonsingular_sampled(heis_line, n_samples=50)
    assert not bad.ok
    x, z = bad.counterexample
    assert not heis_line.center().contains(x)


def test_strict_nonsingularity_abelian_vacuous():
    ab = NilLieAlgebra(2, ["a", "b"], {})
    verdict = is_strictly_nonsingular_sampled(ab, n_samples=20)
    assert verdict.ok and verdict.checked == 0


def quotient_map_extend(qdim, updates):
    m = [[F(0)] * qdim for _ in range(qdim)]
    for i in range(qdim):
        m[i][i] = F(1)
    for (i, j), v in updates.items():
        m[i][j] = v
    return m


def test_almost_inner_quotients(dim7, dim5):
    quot7, _ = dim7.quotient(dim7.derived(2))
    # Ybar2 -> Ybar2 + Zbar2/2 (indices in the 6-dim quotient: Y2=3, Z2=5).
    phi7 = quotient_map_extend(6, {(5, 3): F(1, 2)})
    verdict = is_almost_inner_2step(quot7, phi7, n_samples=150)
    assert verdict.ok
    assert find_inner_witness(quot7, phi7) is None  # almost inner, not inner

    quot5, _ = dim5.quotient(dim5.derived(2))
    # Ybar1 -> Ybar1 + Zbar/2 (quotient indices: Y1=1, Z=3).
    phi5 = quotient_map_extend(4, {(3, 1): F(1, 2)})
    verdict5 = is_almost_inner_2step(quot5, phi5, n_samples=150)
    assert verdict5.ok
    witness = find_inner_witness(quot5, phi5)
    assert witness is not None
    # [witness, v] = phi(v) - v for every basis vector.
    for j in range(4):
        assert quot5.bracket(witness, e(4, j)) == vsub(
            tuple(mat_vec(phi5, e(4, j))), e(4, j)
        )


def test_almost_inner_identity(dim7):
    quot, _ = dim7.quotient(dim7.derived(2))
    verdict = is_almost_inner_2step(quot, identity(6), n_samples=20)
    assert verdict.ok
    assert verdict.counterexample is None


def test_almost_inner_rejects_3step(dim7):
    with pytest.raises(ValueError):
        is_almost_inner_2step(dim7, identity(7))


def test_coadjoint_orbits(dim7):
    quot, _ = dim7.quotient(dim7.derived(2))
    tau = vadd(e(6, 0), e(6, 5))  # alpha1* + zeta2*
    assert coadjoint_orbit_equal_2step(quot, tau, tau)
    # The sector-II pairing map negates alpha1, beta1, zeta2 coordinates.
    tau_phi = (F(-1), F(0), F(0), F(0), F(0), F(-1))
    assert not coadjoint_orbit_equal_2step(quot, tau, tau_phi)
    # Heisenberg: zeta* and zeta* + alpha* lie in one orbit.
    heis = NilLieAlgebra(3, ["x", "y", "z"], {(0, 1): [(2, F(1))]})
    assert coadjoint_orbit_equal_2step(heis, e(3, 2), vadd(e(3, 2), e(3, 0)))


def test_coadjoint_orbit_symmetry_sampled(dim7):
    quot, _ = dim7.quotient(dim7.derived(2))
    rng = random.Random(5)
    for _ in range(25):
        t1 = sample_vector(rng, 6)
        t2 = sample_vector(rng, 6)
        assert coadjoint_orbit_equal_2step(quot, t1, t1)
        assert coadjoint_orbit_equal_2step(quot, t1, t2) == coadjoint_orbit_equal_2step(
            quot, t2, t1
        )


def test_automorphisms_preserve_series(dim7):
    m = example_v_map()
    for k in (1, 2):
        sub = dim7.derived(k)
        image = Subspace(7, [tuple(mat_vec(m, b)) for b in sub.basis()])
        assert image == sub
    cimage = Subspace(7, [tuple(mat_vec(m, b)) for b in dim7.center().basis()])
    assert cimage == dim7.center()


def singular_locus_sampled(algebra, n_samples=300, seed=DEFAULT_SEED):
    """Span of sampled directions where ad drops below its generic rank.

    Returns (subspace, generic_rank, verified) where verified means every
    structured and sampled point of the span also has degenerate ad: a
    sampled description of a rank stratum, used only as a cross-check here.
    """
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]

    def ad_rank(x):
        _, pivots = reference_rref(reference_ad_matrix(algebra, x))
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


def test_singular_locus(dim7, dim5):
    span7, generic7, ok7 = singular_locus_sampled(dim7)
    assert ok7 and generic7 == 3
    assert span7 == Subspace(7, [e(7, 1), e(7, 2), e(7, 4), e(7, 5), e(7, 6)])
    span5, generic5, ok5 = singular_locus_sampled(dim5)
    assert ok5 and generic5 == 2
    assert span5 == Subspace(5, [e(5, 2), e(5, 3), e(5, 4)])


def test_algebra_json_roundtrip(dim7):
    data = algebra_json(dim7)
    back = NilLieAlgebra.from_json(data)
    assert algebra_json(back) == data
    assert back.bracket(e(7, 0), e(7, 2)) == e(7, 4)


def test_center_is_computed_once(dim7):
    center = dim7.center()
    assert isinstance(center.rows, tuple)
    assert dim7.center() is center
