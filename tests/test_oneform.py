import itertools
import json
import math
import pathlib
from itertools import islice
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilspec.exactnum import IntLattice, bareiss_det
from nilspec.lattices import LatticeSpec
from nilspec.oneform import (
    Candidate,
    CharacterMatrix,
    assemble_E,
    det_at,
    det_vanishes_by_norm,
    enumerate_shell,
    nullity_at,
    _echelon_quadratic,
    _ShiftedAtPoints,
    s2_values_up_to,
)
from nilspec.registry import load
from nilspec.vecops import basis_vec

from conftest import build_dim5, build_dim7, lattice_gens, standard_metric
from fraction_references import cofactor_det, vzero
from oneform_references import (
    Ext,
    covector_from_frame,
    as_int_matrix,
    as_polys,
    ext,
    leading_pi_coefficient,
    numeric_spectrum,
    padd,
    plain_candidate,
    pmul,
    poly,
    psub,
    reference_assemble_E,
    reference_nullity_at,
    s_squared,
    sqrt_candidate,
)
from test_geometry import metric_v

F = Fraction

LAM_PI2_PLUS_1 = plain_candidate([1, 0, 1])
Q17 = [1, 0, F(17, 4)]


def char7(tau):
    alg = build_dim7()
    return alg, standard_metric(alg), tuple(F(t) for t in tau)


def char5(tau):
    alg = build_dim5()
    return alg, standard_metric(alg), tuple(F(t) for t in tau)


def char_v(frame_coeffs):
    alg = build_dim7()
    met = metric_v(alg)
    return alg, met, covector_from_frame(met, [F(c) for c in frame_coeffs])


def entry(const=0, lin_im=0, quad=0):
    return poly(const, (0, lin_im), quad)


def conj(e):
    """Coefficient-wise conjugate; the indeterminate p is real."""
    return tuple((re, -im) for re, im in e)


def golden_matrix_7(a1, a2, b1, b2):
    s2 = a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2
    d = lambda c=0: entry(const=c, quad=4 * s2)
    o = lambda im: entry(lin_im=im)
    z = ()
    return [
        [d(), z, z, z, o(-2 * b1), o(-2 * b2), z],
        [z, d(), z, z, o(-2 * b2), z, z],
        [z, z, d(), z, o(2 * a1), z, o(-2 * b2)],
        [z, z, z, d(), o(2 * a2), o(2 * a1), o(2 * b1)],
        [o(2 * b1), o(2 * b2), o(-2 * a1), o(-2 * a2), d(2), z, o(2 * a1)],
        [o(2 * b2), z, z, o(-2 * a1), z, d(1), o(2 * a2)],
        [z, z, o(2 * b2), o(-2 * b1), o(-2 * a1), o(-2 * a2), d(3)],
    ]


def golden_matrix_5(a1, b1, b2):
    s2 = a1 * a1 + b1 * b1 + b2 * b2
    d = lambda c=0: entry(const=c, quad=4 * s2)
    o = lambda im: entry(lin_im=im)
    z = ()
    return [
        [d(), z, z, o(-2 * b1), z],
        [z, d(), z, o(2 * a1), o(-2 * b2)],
        [z, z, d(), z, o(2 * b1)],
        [o(2 * b1), o(-2 * a1), z, d(1), o(2 * a1)],
        [z, o(2 * b2), o(-2 * b1), o(-2 * a1), d(2)],
    ]


def golden_matrix_v_upper(a1, a2, a3, a4):
    """Upper triangle of the displayed frame-metric matrix (see test below)."""
    s2 = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4
    d = lambda c=0: entry(const=c, quad=4 * s2)
    o = lambda im: entry(lin_im=im)
    entries = {
        (0, 4): o(2 * a3),
        (0, 5): o(2 * a4),
        (0, 6): o(-a2 / 8 + a3 / 2 + a4 / 2),
        (1, 4): o(2 * a4),
        (1, 6): o(a1 / 8 - a4 / 2),
        (2, 4): o(-2 * a1),
        (2, 6): o(-a1 / 2 + 2 * a4),
        (3, 4): o(-2 * a2),
        (3, 5): o(-2 * a1),
        (3, 6): o(-a1 / 2 + a2 / 2 - 2 * a3),
        (4, 6): o(-2 * a1),
        (5, 6): entry(const=F(1, 4), lin_im=-2 * a2),
    }
    diag = [d(), d(), d(), d(), d(2), d(1), d(F(817, 256))]
    return entries, diag


GRID = [F(0), F(1), F(1, 2)]


def test_golden_matrix_dim7():
    # Entries are polynomial of degree <= 2 in each coordinate of tau, so
    # agreement on a 3^4 grid is agreement identically.
    for a1, a2, b1, b2 in itertools.product(GRID, repeat=4):
        alg, met, tau = char7([a1, a2, b1, b2, 0, 0, 0])
        got = assemble_E(alg, met, tau)
        want = golden_matrix_7(a1, a2, b1, b2)
        assert as_polys(got) == want


def test_golden_matrix_dim5():
    for a1, b1, b2 in itertools.product(GRID, repeat=3):
        alg, met, tau = char5([a1, b1, b2, 0, 0])
        got = assemble_E(alg, met, tau)
        want = golden_matrix_5(a1, b1, b2)
        assert as_polys(got) == want


def test_golden_matrix_frame_metric():
    # The displayed frame-metric matrix lists the transposed (equivalently
    # conjugated) entries relative to the two matrices above; as Hermitian
    # matrices the content is identical, so compare entry (j,k) with the
    # assembled (k,j).
    for a1, a2, a3, a4 in itertools.product([F(0), F(1), F(1, 4)], repeat=4):
        alg, met, tau = char_v([a1, a2, a3, a4])
        got = as_polys(assemble_E(alg, met, tau))
        entries, diag = golden_matrix_v_upper(a1, a2, a3, a4)
        for j in range(7):
            assert got[j][j] == diag[j]
            for k in range(j + 1, 7):
                want = entries.get((j, k), ())
                assert got[k][j] == want, (j, k)


def test_assemble_zero_tau_is_invariant_laplacian():
    alg, met, tau = char7([0] * 7)
    got = as_polys(assemble_E(alg, met, tau))
    from nilspec.geometry import laplacian_on_invariant_oneforms

    lap = laplacian_on_invariant_oneforms(met)
    for j in range(7):
        for k in range(7):
            assert got[j][k] == poly(lap[j][k])


def test_character_wave_rejects_nonvanishing_tau():
    alg = build_dim7()
    met = standard_metric(alg)
    with pytest.raises(ValueError, match="does not vanish on the derived algebra"):
        assemble_E(alg, met, basis_vec(7, 4))  # zeta1* does not kill g^(1)


# Each fault replaces one entry of an assembled matrix: an off-diagonal entry
# that no longer matches its conjugate, or the (0, 0) entry [c0, c1, c2],
# whose coefficients are real.
SHAPE_FAULTS = [
    ((0, 1), lambda e: e + [(1, 0)], "not Hermitian"),
    ((0, 0), lambda e: e + [(1, 0)], "degree exceeds two"),
    ((0, 0), lambda e: [e[0], e[1], (e[2][0] + 1, 0)], "quadratic part is not 4 S\\^2 I"),
    ((0, 0), lambda e: [(e[0][0] + 1, 0), e[1], e[2]], "constant part is not the invariant Laplacian"),
    ((0, 0), lambda e: [e[0], (1, 0), e[2]], "linear part is not purely imaginary"),
]


@pytest.mark.parametrize(
    "where, fault, message", SHAPE_FAULTS, ids=["hermitian", "degree", "quadratic", "constant", "linear"]
)
def test_shape_check_rejects_a_corrupted_entry(where, fault, message):
    alg, met, tau = char7([F(1, 2), 0, F(1, 2), 0, 0, 0, 0])
    e = assemble_E(alg, met, tau)
    rows = [[list(x) for x in row] for row in e.rows]
    CharacterMatrix(alg, met, rows, e.den, e.s2)
    j, k = where
    rows[j][k] = fault(rows[j][k])
    with pytest.raises(AssertionError, match=message):
        CharacterMatrix(alg, met, rows, e.den, e.s2)


def test_det_zero_pattern_dim7():
    half = F(1, 2)
    zero_taus = [[0, 0, half, 0], [0, 0, -half, 0]]
    nonzero_taus = [
        [half, 0, 0, 0],
        [-half, 0, 0, 0],
        [0, half, 0, 0],
        [0, -half, 0, 0],
        [0, 0, 0, half],
        [0, 0, 0, -half],
    ]
    for t in zero_taus:
        alg, met, tau = char7(t + [0, 0, 0])
        det, is_eig = det_at(assemble_E(alg, met, tau), LAM_PI2_PLUS_1)
        assert is_eig and det == ((), ())
    for t in nonzero_taus:
        alg, met, tau = char7(t + [0, 0, 0])
        det, is_eig = det_at(assemble_E(alg, met, tau), LAM_PI2_PLUS_1)
        assert not is_eig and det != ((), ())


def test_det_zero_pattern_dim5():
    half = F(1, 2)
    for t, expect in [
        ([half, 0, 0], True),
        ([-half, 0, 0], True),
        ([0, half, 0], False),
        ([0, -half, 0], False),
    ]:
        alg, met, tau = char5(t + [0, 0])
        _, is_eig = det_at(assemble_E(alg, met, tau), LAM_PI2_PLUS_1)
        assert is_eig == expect


def test_det_zero_pattern_frame_metric():
    lam = sqrt_candidate(Q17)
    quarter = F(1, 4)
    zero_taus = [[0, quarter, -1, 0], [0, -quarter, 1, 0]]
    nonzero_taus = [
        [0, quarter, 1, 0],
        [0, -quarter, -1, 0],
        [quarter, 0, 0, 1],
        [quarter, 0, 0, -1],
        [-quarter, 0, 0, 1],
        [-quarter, 0, 0, -1],
    ]
    for t in zero_taus:
        alg, met, tau = char_v(t)
        _, is_eig = det_at(assemble_E(alg, met, tau), lam)
        assert is_eig
    for t in nonzero_taus:
        alg, met, tau = char_v(t)
        _, is_eig = det_at(assemble_E(alg, met, tau), lam)
        assert not is_eig


def test_nullity_and_kernels():
    alg, met, tau = char7([0, 0, F(1, 2), 0, 0, 0, 0])
    nullity, kernel = nullity_at(assemble_E(alg, met, tau), LAM_PI2_PLUS_1)
    assert nullity == 1
    (veck,) = kernel
    for idx, x in enumerate(veck):
        if idx == 5:  # zeta2 direction
            assert x != ((), ())
        else:
            assert x == ((), ())

    alg5, met5, tau5 = char5([F(1, 2), 0, 0, 0, 0])
    nullity5, kernel5 = nullity_at(assemble_E(alg5, met5, tau5), LAM_PI2_PLUS_1)
    assert nullity5 == 1
    (k5,) = kernel5
    # Proportional to (0, pi*i, 0, 1, pi*i) in basis (alpha1, beta1, beta2, zeta, omega).
    target = [(), poly(0, (0, 1)), (), poly(1), poly(0, (0, 1))]
    assert k5[0] == k5[2] == ((), ())
    for i in range(5):
        for j in range(5):
            assert pmul(k5[i][0], target[j]) == pmul(k5[j][0], target[i])


def test_nullity_zero_at_noneigenvalue():
    alg, met, tau = char7([0, 0, F(1, 2), 0, 0, 0, 0])
    lam = plain_candidate([-1])
    nullity, kernel = nullity_at(assemble_E(alg, met, tau), lam)
    assert nullity == 0 and not kernel


def test_leading_pi_coefficient():
    rng = random.Random(3)

    def rand_q():
        return F(rng.randint(-3, 3), rng.choice([1, 2, 4]))

    for _ in range(5):
        t = [rand_q() for _ in range(4)]
        alg, met, tau = char7(t + [0, 0, 0])
        s2 = s_squared(met, tau)
        e = assemble_E(alg, met, tau)
        assert leading_pi_coefficient(e, LAM_PI2_PLUS_1) == (4 * s2 - 1) ** 7
    for _ in range(5):
        t = [rand_q() for _ in range(3)]
        alg, met, tau = char5(t + [0, 0])
        s2 = s_squared(met, tau)
        e = assemble_E(alg, met, tau)
        assert leading_pi_coefficient(e, LAM_PI2_PLUS_1) == (4 * s2 - 1) ** 5
    lam = sqrt_candidate(Q17)
    for _ in range(5):
        t = [rand_q() for _ in range(4)]
        alg, met, tau = char_v(t)
        s2 = s_squared(met, tau)
        e = assemble_E(alg, met, tau)
        assert leading_pi_coefficient(e, lam) == (4 * s2 - F(17, 4)) ** 7


def test_leading_pi_coefficient_vanishes_on_shell():
    alg, met, tau = char7([F(1, 2), 0, 0, 0, 0, 0, 0])
    e = assemble_E(alg, met, tau)
    assert leading_pi_coefficient(e, LAM_PI2_PLUS_1) == 0


def test_det_invariant_under_signed_permutation():
    # tau -> tau o Phi for the involutive isometry-automorphism
    # diag(-1, 1, -1, 1, 1, -1, -1) leaves det(E - lambda I) unchanged.
    signs = [-1, 1, -1, 1, 1, -1, -1]
    rng = random.Random(5)
    for _ in range(3):
        t = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4)] + [0, 0, 0]
        alg, met, tau = char7(t)
        tphi = tuple(F(signs[m]) * tm for m, tm in enumerate(tau))
        d1, _ = det_at(assemble_E(alg, met, tau), LAM_PI2_PLUS_1)
        d2, _ = det_at(assemble_E(alg, met, tphi), LAM_PI2_PLUS_1)
        assert d1 == d2


def shell_lattices(pair_root):
    from conftest import build_dim5 as b5, build_dim7 as b7

    alg = b5() if pair_root in ("II", "IV") else b7()
    out = []
    for side in ("1", "2"):
        spec = LatticeSpec(alg, lattice_gens(f"{pair_root}.{side}"))
        _, lat = spec.quotient(*alg.quotient(alg.derived(alg.step - 1)))
        out.append(lat)
    return alg, out


def test_shell_enumeration_dim7():
    alg = build_dim7()
    met = standard_metric(alg)
    half = F(1, 2)
    _, (lat1, lat2) = shell_lattices("III")
    shell1 = enumerate_shell(alg, met, lat1, F(1, 4))
    shell2 = enumerate_shell(alg, met, lat2, F(1, 4))

    def cov(vals):
        v = vzero(7)
        v = list(v)
        for idx, c in vals:
            v[idx] = c
        return tuple(v)

    assert set(shell1) == {
        cov([(0, half)]),
        cov([(0, -half)]),
        cov([(1, half)]),
        cov([(1, -half)]),
    }
    assert set(shell2) == {
        cov([(2, half)]),
        cov([(2, -half)]),
        cov([(3, half)]),
        cov([(3, -half)]),
    }


def test_shell_enumeration_dim5():
    alg = build_dim5()
    met = standard_metric(alg)
    _, (lat1, lat2) = shell_lattices("IV")
    shell1 = enumerate_shell(alg, met, lat1, F(1, 4))
    shell2 = enumerate_shell(alg, met, lat2, F(1, 4))
    half = F(1, 2)
    assert set(shell1) == {
        (half, 0, 0, 0, 0),
        (-half, 0, 0, 0, 0),
    }
    assert set(shell2) == {
        (0, half, 0, 0, 0),
        (0, -half, 0, 0, 0),
    }


def test_shell_enumeration_frame_metric():
    alg = build_dim7()
    met = metric_v(alg)
    _, (lat1, lat2) = shell_lattices("V")
    shell1 = enumerate_shell(alg, met, lat1, F(17, 16))
    shell2 = enumerate_shell(alg, met, lat2, F(17, 16))
    q = F(1, 4)

    def tau_of(coeffs):
        return covector_from_frame(met, [F(c) for c in coeffs])

    want1 = {
        tau_of([0, q, 1, 0]),
        tau_of([0, -q, -1, 0]),
        tau_of([q, 0, 0, 1]),
        tau_of([q, 0, 0, -1]),
        tau_of([-q, 0, 0, 1]),
        tau_of([-q, 0, 0, -1]),
    }
    want2 = {
        tau_of([0, q, -1, 0]),
        tau_of([0, -q, 1, 0]),
        tau_of([q, 0, 0, 1]),
        tau_of([q, 0, 0, -1]),
        tau_of([-q, 0, 0, 1]),
        tau_of([-q, 0, 0, -1]),
    }
    assert set(shell1) == want1
    assert set(shell2) == want2


def test_character_s2_multisets_match():
    for root in ("I", "II", "III", "IV", "V"):
        alg, (lat1, lat2) = shell_lattices(root)
        met = metric_v(alg) if root == "V" else standard_metric(alg)
        vals1 = s2_values_up_to(alg, met, lat1, F(10))
        vals2 = s2_values_up_to(alg, met, lat2, F(10))
        assert vals1 == vals2


def test_numeric_spectrum():
    alg, met, tau = char7([0] * 7)
    spec = numeric_spectrum(assemble_E(alg, met, tau), math.pi)
    assert [round(x, 9) for x in spec] == [0, 0, 0, 0, 1, 2, 3]

    alg5, met5, tau5 = char5([0] * 5)
    spec5 = numeric_spectrum(assemble_E(alg5, met5, tau5), math.pi)
    assert [round(x, 9) for x in spec5] == [0, 0, 0, 1, 2]

    alg, met, tau_b = char7([0, 0, F(1, 2), 0, 0, 0, 0])
    spec_b = numeric_spectrum(assemble_E(alg, met, tau_b), math.pi)
    target = math.pi**2 + 1
    assert any(abs(x - target) < 1e-9 for x in spec_b)


# -- det_at and nullity_at against division-free references over Q(i)[p][s] ---------


def _shifted(entries, lam):
    """E - lambda I over Q(i)[p][s]/(s^2 - q), from E's coefficient-tuple entries."""
    shift, zero = Ext(lam.a, lam.b, lam.q), Ext((), (), lam.q)
    return [
        [Ext(e, (), lam.q) - (shift if j == k else zero) for k, e in enumerate(row)]
        for j, row in enumerate(entries)
    ]


def _reference_det_at(entries, lam):
    """det(E - lambda I) by cofactor expansion over Q(i)[p][s]/(s^2 - q)."""
    return cofactor_det(_shifted(entries, lam))


def _reference_rank(m):
    """The largest r with a nonzero r-minor, by cofactor expansion."""
    n = len(m)
    for r in range(n, 0, -1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(n), r):
                if cofactor_det([[m[i][j] for j in cols] for i in rows]) != 0:
                    return r
    return 0


def _check_nullity(matrix, entries, lam):
    """nullity_at against _reference_rank on E's entries; its kernel is
    exact and independent, equal to the per-minor Cramer construction, and the
    nullity is positive exactly where det_at and det_vanishes_by_norm find
    det(E - lambda I) = 0."""
    n = matrix.dim
    m = _shifted(entries, lam)
    nullity, kernel = nullity_at(matrix, lam)
    assert nullity == n - _reference_rank(m)
    assert (nullity > 0) == det_at(matrix, lam)[1] == det_vanishes_by_norm(matrix, lam)
    assert (nullity, kernel) == reference_nullity_at(matrix, lam)
    assert len(kernel) == nullity
    vectors = [[ext(v, lam.q) for v in vec] for vec in kernel]
    for vec in vectors:
        for row in m:
            acc = Ext((), (), lam.q)
            for x, v in zip(row, vec):
                acc = acc + x * v
            assert acc.is_zero()
    # Independent: some nullity x nullity minor of the kernel vectors is nonzero.
    assert any(
        cofactor_det([[vec[c] for c in cols] for vec in vectors]) != 0
        for cols in itertools.combinations(range(n), nullity)
    )
    return nullity


# Moduli that make det_at skip points: q(0) = 0 for p; q(0) = 1, a square, for
# 1 + 17/4 p^2; q(0) = -4 = (2i)^2 and q(2) = q(-2) = 0 for p^2 - 4.
MODULI = [[0, 1], [1, 0, F(17, 4)], [-4, 0, 1]]

small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def gauss_poly(draw, real=False, max_degree=2):
    degree = draw(st.integers(-1, max_degree))
    coeffs = []
    for _ in range(degree + 1):
        re = draw(small_rational)
        im = F(0) if real else draw(small_rational)
        coeffs.append((re, im))
    return poly(*coeffs)


@st.composite
def hermitian_matrix(draw, n=None):
    n = draw(st.integers(3, 7)) if n is None else n
    entries = [[None] * n for _ in range(n)]
    for j in range(n):
        entries[j][j] = draw(gauss_poly(real=True))
        for k in range(j + 1, n):
            # Mostly sparse, like the assembled matrices.
            e = draw(gauss_poly()) if draw(st.integers(0, 2)) == 0 else ()
            entries[j][k], entries[k][j] = e, conj(e)
    return entries


@st.composite
def candidate(draw):
    """lambda = a + b s with Gaussian a and b, as Candidate.from_json accepts them."""
    q = poly(*draw(st.sampled_from(MODULI)))
    kind = draw(st.sampled_from(["plain", "sqrt", "mixed"]))
    if kind == "plain":
        return Candidate(draw(gauss_poly()), (), q)
    if kind == "sqrt":
        return Candidate(q, poly(1), q)
    b = draw(gauss_poly(max_degree=1))
    return Candidate(draw(gauss_poly()), b, q)


def _split_off(entries, lam):
    """Make the plain lambda a 1 x 1 block of E, so that it is an eigenvalue."""
    for k in range(1, len(entries)):
        entries[0][k] = entries[k][0] = ()
    entries[0][0] = lam.a


@settings(max_examples=40, deadline=None)
@given(entries=hermitian_matrix(), lam=candidate(), singular=st.booleans())
def test_det_at_matches_bareiss_over_polynomials(entries, lam, singular):
    if singular and not lam.b:
        _split_off(entries, lam)
    matrix = as_int_matrix(entries)
    det, is_zero = det_at(matrix, lam)
    expected = _reference_det_at(entries, lam)
    assert det == expected.parts
    assert is_zero == expected.is_zero()
    if singular and not lam.b:
        assert is_zero


@settings(max_examples=40, deadline=None)
@given(entries=hermitian_matrix(), lam=candidate(), singular=st.booleans())
# det = p - 2 vanishes at 2, the first good point of q = p, and nowhere else.
@example(entries=[[poly(-2, 1)]], lam=plain_candidate([0]), singular=False)
def test_det_vanishes_by_norm_matches_det_at(entries, lam, singular):
    if singular and not lam.b:
        _split_off(entries, lam)
    matrix = as_int_matrix(entries)
    assert det_vanishes_by_norm(matrix, lam) == det_at(matrix, lam)[1]


def _matmul(x, y):
    return [[reduce(padd, (pmul(a, c) for a, c in zip(row, col)), ()) for col in zip(*y)] for row in x]


@pytest.mark.parametrize("b", [poly((0, 1)), poly((1, 1))], ids=["i", "1+i"])
def test_det_vanishes_by_norm_with_gaussian_a_and_b(b):
    # The bundled candidates have real a and b, and candidate() makes a mixed
    # lambda an eigenvalue only by chance.  Here lambda = a + b s with a = 1 + i,
    # s^2 = 1 + p^2, is an eigenvalue of E = a + b G H G^-1:
    # H = [[p, 1], [1, -p]] + [[2p, 1], [1, -2p]] has the eigenvalues +-s once each, and
    # G = P W, W unitary and P unitriangular over Q(i), spreads the kernel vector over
    # every coordinate and every part of (1, i, s, is).
    a, one, c, d, u, v = (poly(x) for x in ((1, 1), 1, F(3, 5), F(4, 5), (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))))
    h = [[poly(0, 1), one, (), ()], [one, poly(0, -1), (), ()], [(), (), poly(0, 2), one], [(), (), one, poly(0, -2)]]
    w = _matmul(
        [[u, v, (), ()], [v, u, (), ()], [(), (), one, ()], [(), (), (), one]],
        [[c, (), psub((), d), ()], [(), c, (), psub((), d)], [d, (), c, ()], [(), d, (), c]],
    )
    p, p_inv = ([[one, poly((0, k)), (), ()], [(), one, (), ()], [(), (), one, poly((k, k))], [(), (), (), one]]
                for k in (1, -1))
    g, g_inv = _matmul(p, w), _matmul([[conj(x) for x in col] for col in zip(*w)], p_inv)
    entries = [
        [padd(a if j == k else (), pmul(b, e)) for k, e in enumerate(row)]
        for j, row in enumerate(_matmul(g, _matmul(h, g_inv)))
    ]
    matrix = as_int_matrix(entries)
    for shift, singular in ((a, True), (padd(a, one), False)):
        lam = Candidate(shift, b, poly(1, 0, 1))
        assert det_vanishes_by_norm(matrix, lam) == det_at(matrix, lam)[1] == singular


@pytest.mark.parametrize("root", ["III", "IV", "V"])
def test_det_at_matches_bareiss_on_shells(root):
    record = load(root)
    algebra, metric, lam = record.algebra, record.metric, record.eigen_candidate
    zeros = 0
    for spec in (record.spec1, record.spec2):
        lattice = IntLattice(algebra.dim, spec.generators)
        for tau in enumerate_shell(algebra, metric, lattice, record.s2_target):
            e = assemble_E(algebra, metric, tau)
            det, is_zero = det_at(e, lam)
            assert det == _reference_det_at(reference_assemble_E(algebra, metric, tau), lam).parts
            zeros += is_zero
    assert zeros > 0


# Sums x^2 + |y|^2 = q: then [[a + b x, b y], [b conj(y), a - b x]] has the
# eigenvalues a +- b s, so it is a singular 2 x 2 block of E - (a + b s) I.
SPLIT_MODULI = {
    (1, 0, F(17, 4)): [
        (poly(0, 2), poly(1, (0, F(1, 2)))),
        (poly(0, F(1, 2)), poly(1, (0, 2))),
    ],
    (1, 0, 1): [(poly(0, 1), poly(1)), ((), poly(1, (0, 1)))],
}

# Unitary 2 x 2 matrices over Q(i), as constant polynomials.
UNITARIES = [
    [[poly(F(3, 5)), poly(F(-4, 5))], [poly(F(4, 5)), poly(F(3, 5))]],
    [
        [poly((F(1, 2), F(1, 2))), poly((F(1, 2), F(-1, 2)))],
        [poly((F(1, 2), F(-1, 2))), poly((F(1, 2), F(1, 2)))],
    ],
]


@st.composite
def forced_rank_matrix(draw):
    """(entries, lambda, deficiency) with rank(E - lambda I) <= n - deficiency.

    Singular diagonal blocks of E - lambda I force the deficiency: 1 x 1
    blocks for a plain lambda, 2 x 2 blocks from SPLIT_MODULI for a mixed
    one.  A unitary similarity on two coordinates and a permutation hide them.
    """
    deficiency = draw(st.integers(1, 2))
    if draw(st.booleans()):
        lam = Candidate(draw(gauss_poly(real=True)), (), poly(*draw(st.sampled_from(MODULI))))
        blocks = [[[lam.a]]] * deficiency
    else:
        q = draw(st.sampled_from(sorted(SPLIT_MODULI)))
        a = draw(gauss_poly(real=True))
        b = draw(gauss_poly(real=True, max_degree=1).filter(bool))
        lam = Candidate(a, b, poly(*q))
        blocks = []
        for _ in range(deficiency):
            x, y = draw(st.sampled_from(SPLIT_MODULI[q]))
            blocks.append([[padd(a, pmul(b, x)), pmul(b, y)], [pmul(b, conj(y)), psub(a, pmul(b, x))]])
    size = sum(len(block) for block in blocks)
    blocks.append(draw(hermitian_matrix(n=draw(st.integers(1, 6 - size)))))
    n = size + len(blocks[-1])
    entries = [[()] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for j, row in enumerate(block):
            for k, e in enumerate(row):
                entries[start + j][start + k] = e
        start += len(block)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    (u00, u01), (u10, u11) = draw(st.sampled_from(UNITARIES))
    # U E U^* for the unitary U acting on coordinates i and j.
    entries[i], entries[j] = (
        [padd(pmul(x, u00), pmul(y, u01)) for x, y in zip(entries[i], entries[j])],
        [padd(pmul(x, u10), pmul(y, u11)) for x, y in zip(entries[i], entries[j])],
    )
    for row in entries:
        row[i], row[j] = (
            padd(pmul(row[i], conj(u00)), pmul(row[j], conj(u01))),
            padd(pmul(row[i], conj(u10)), pmul(row[j], conj(u11))),
        )
    perm = draw(st.permutations(range(n)))
    return [[entries[a][b] for b in perm] for a in perm], lam, deficiency


@settings(max_examples=30, deadline=None)
@given(case=forced_rank_matrix())
def test_nullity_at_matches_minors_over_polynomials(case):
    entries, lam, deficiency = case
    n = len(entries)
    assert all(entries[j][k] == conj(entries[k][j]) for j in range(n) for k in range(n))
    assert _check_nullity(as_int_matrix(entries), entries, lam) >= deficiency


@settings(max_examples=20, deadline=None)
@given(
    a=gauss_poly().filter(lambda a: any(im for _, im in a)),
    q=st.sampled_from(MODULI),
    deficiency=st.integers(1, 2),
    rest=hermitian_matrix(n=2),
)
def test_nullity_at_with_a_non_real_lambda(a, q, deficiency, rest):
    # 1 x 1 blocks equal to a non-real a make E non-Hermitian; nullity_at does
    # not need E Hermitian, and the real parts alone would miss a sign slip in i.
    n = deficiency + len(rest)
    entries = [[()] * n for _ in range(n)]
    for j in range(deficiency):
        entries[j][j] = a
    for j, row in enumerate(rest):
        entries[deficiency + j][deficiency:] = row
    lam = Candidate(a, (), poly(*q))
    assert _check_nullity(as_int_matrix(entries), entries, lam) >= deficiency


@pytest.mark.parametrize("root", ["III", "IV", "V"])
def test_nullity_at_matches_minors_on_shells(root):
    record = load(root)
    algebra, metric, lam = record.algebra, record.metric, record.eigen_candidate
    total = 0
    for spec in (record.spec1, record.spec2):
        lattice = IntLattice(algebra.dim, spec.generators)
        for tau in enumerate_shell(algebra, metric, lattice, record.s2_target):
            e = assemble_E(algebra, metric, tau)
            total += _check_nullity(e, reference_assemble_E(algebra, metric, tau), lam)
    assert total == 2


# -- the fast paths against their references ------------------------------------


# For plain_candidate([0]) the first good points are p = 2, -2, 3, -3, ...
# (d = p must not be zero or a square).
LAM_ZERO = plain_candidate([0])


def test_cramer_minors_skip_a_point_where_the_minor_vanishes():
    # Rank 1; the 1 x 1 minor p + 2 chosen at p = 2 vanishes at p = -2, the
    # second good point, where its row is (0, 1).
    matrix = as_int_matrix([[poly(2, 1), poly(1)]] * 2)
    shifted = _ShiftedAtPoints(matrix, LAM_ZERO)
    points = list(islice(shifted.points(), 3))
    assert [p0 for p0, _, _ in points] == [2, -2, 3]
    _, d, m = points[1]
    assert _echelon_quadratic([m[0]], d, True)[1] == [1]
    nullity, kernel = nullity_at(matrix, LAM_ZERO)
    assert nullity == 1
    assert (nullity, kernel) == reference_nullity_at(matrix, LAM_ZERO)
    assert [v[0] for v in kernel[0]] == [poly(-1), poly(2, 1)]


def test_cramer_minors_carry_the_row_swap_sign():
    # Rank 2, third row the sum of the first two.  The leading entry p + 2 is
    # nonzero at p = 2, where rows 0 and 1 are chosen, and zero at p = -2,
    # where the elimination must swap them.
    entries = [
        [poly(2, 1), poly(1), poly(3, 1)],
        [poly(1), (), poly(1)],
        [poly(3, 1), poly(1), poly(4, 1)],
    ]
    matrix = as_int_matrix(entries)
    nullity, kernel = nullity_at(matrix, LAM_ZERO)
    assert nullity == 1
    assert (nullity, kernel) == reference_nullity_at(matrix, LAM_ZERO)
    # det [[p + 2, 1], [1, 0]] = -1; the kernel vector is (1, 1, -1) times it.
    assert [v[0] for v in kernel[0]] == [poly(1), poly(1), poly(-1)]
    shifted = _ShiftedAtPoints(matrix, LAM_ZERO)
    (_, d, m), = islice((pt for pt in shifted.points() if pt[0] == -2), 1)
    rows = [m[0], m[1]]
    assert not any(rows[0][0])
    assert _echelon_quadratic(rows, d, True)[2][0] == (-1, 0, 0, 0)


# -- assemble_E against the Fraction assembly -------------------------------------


@pytest.mark.parametrize("root", ["III", "IV", "V"])
def test_assemble_E_matches_fraction_reference_on_shells(root):
    record = load(root)
    algebra, metric = record.algebra, record.metric
    count = 0
    for spec in (record.spec1, record.spec2):
        lattice = IntLattice(algebra.dim, spec.generators)
        for tau in enumerate_shell(algebra, metric, lattice, record.s2_target):
            assert as_polys(assemble_E(algebra, metric, tau)) == reference_assemble_E(algebra, metric, tau)
            count += 1
    assert count > 0


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(small_rational, min_size=4, max_size=4), frame_metric=st.booleans())
def test_assemble_E_matches_fraction_reference(coeffs, frame_metric):
    # tau on the first four structure-dual coordinates (standard metric), or
    # on the first four frame covectors of metric_v; either kills g^(1).
    alg, met, tau = char_v(coeffs) if frame_metric else char7(coeffs + [0, 0, 0])
    e = assemble_E(alg, met, tau)
    assert as_polys(e) == reference_assemble_E(alg, met, tau)
    assert e.s2 == s_squared(met, tau)


# -- the candidate as coefficient data ------------------------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _json_poly(*coeffs):
    return [[str(re), str(im)] for re, im in coeffs]


# Each malformed modulus with the text it is refused with.  A modulus that is
# wrong twice gets the earlier text: degree, then real coefficients, then
# squarefree.
BAD_MODULI = [
    ([], "modulus must have degree >= 1"),
    (_json_poly((3, 0)), "modulus must have degree >= 1"),
    (_json_poly((0, 1)), "modulus must have degree >= 1"),
    (_json_poly((1, 0), (0, 0)), "modulus must have degree >= 1"),
    (_json_poly((0, 1), (1, 0)), "modulus must have rational real coefficients"),
    (_json_poly((0, 0), (0, 1), (1, 0)), "modulus must have rational real coefficients"),
    (_json_poly((0, 1), (0, 0), (1, 0)), "modulus must have rational real coefficients"),
    (_json_poly((0, 0), (0, 0), (1, 0)), "modulus must be squarefree"),
    (_json_poly((0, 0), (1, 0), (2, 0), (1, 0)), "modulus must be squarefree"),
    (_json_poly((4, 0), (-4, 0), (1, 0), (0, 0)), "modulus must be squarefree"),
]


@pytest.mark.parametrize("q, message", BAD_MODULI)
def test_candidate_from_json_refuses_a_malformed_modulus(q, message):
    data = {"a_coeffs": _json_poly((1, 0)), "b_coeffs": _json_poly((1, 0)), "q_coeffs": q}
    with pytest.raises(ValueError, match=f"^{message}$"):
        Candidate.from_json(data)


def test_candidate_from_json_accepts_squarefree_moduli():
    for q, want in [
        (_json_poly((0, 0), (1, 0), (0, 0)), poly(0, 1)),
        (_json_poly((1, 0), (0, 0), ("17/4", 0)), poly(1, 0, F(17, 4))),
        (_json_poly((0, 0), (1, 0), (1, 0)), poly(0, 1, 1)),
    ]:
        data = {"a_coeffs": [], "b_coeffs": _json_poly((1, 0)), "q_coeffs": q}
        assert Candidate.from_json(data) == Candidate((), poly(1), want)


@pytest.mark.parametrize("root", ["III", "IV", "V"])
def test_candidate_to_json_is_the_golden_lambda(root):
    golden = json.loads((GOLDEN / f"distinguish_{root}.out").read_text(encoding="utf-8"))
    assert load(root).eigen_candidate.to_json() == golden["lambda"]


def _squarefree_by_discriminant(q):
    """Res(q, q') != 0, from the Sylvester matrix: q has no repeated root."""
    f = q[::-1]
    g = [k * c for k, c in enumerate(q)][:0:-1]
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_det([[F(x) for x in row] for row in rows]) != 0


real_modulus = st.lists(small_rational, min_size=2, max_size=4).filter(lambda q: q[-1] != 0)


@settings(max_examples=60, deadline=None)
@given(q=real_modulus, r=small_rational, square=st.booleans())
def test_candidate_squarefree_check_matches_the_discriminant(q, r, square):
    if square:
        # Times (p - r)^2, which puts a repeated root at r.
        for _ in range(2):
            q = [b - r * a for a, b in zip(q + [0], [0] + q)]
    assert not (square and _squarefree_by_discriminant(q))
    raw = {"a_coeffs": [], "b_coeffs": [], "q_coeffs": _json_poly(*((x, 0) for x in q))}
    if _squarefree_by_discriminant(q):
        assert Candidate.from_json(raw).q == poly(*q)
    else:
        with pytest.raises(ValueError, match="^modulus must be squarefree$"):
            Candidate.from_json(raw)


def _unreduced(x, k):
    return f"{x.numerator * k}/{x.denominator * k}"


@settings(max_examples=60, deadline=None)
@given(
    a=gauss_poly(),
    b=gauss_poly(),
    q=real_modulus.filter(_squarefree_by_discriminant),
    k=st.integers(2, 4),
    pad=st.integers(0, 2),
)
def test_candidate_json_round_trip_normalises(a, b, q, k, pad):
    c = Candidate(a, b, poly(*q))
    assert Candidate.from_json(c.to_json()) == c
    # Unreduced fractions ("2/4") and trailing zero pairs read as the same candidate.
    raw = {
        f"{name}_coeffs": [[_unreduced(re, k), _unreduced(im, k)] for re, im in coeffs] + [["0", f"0/{k}"]] * pad
        for name, coeffs in zip(c._fields, c)
    }
    assert Candidate.from_json(raw) == c
    # to_json drops trailing zero pairs itself.
    padded = Candidate(*(coeffs + ((F(0), F(0)),) * pad for coeffs in c))
    assert padded.to_json() == c.to_json()
