"""Differential tests: the integer certifier kernels against the Fraction path.

The ``_reference_*`` functions are the Fraction implementations the integer
structure-tensor kernels replaced, kept verbatim in substance.  Every field a
verdict or a record reports must agree, on the failing branches too.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilspec.exactnum import IntLattice, perfect_square_root, pfaffian
from nilspec.exactnum.intlattice import _kernel_split
from nilspec.exactnum.matrix import bareiss_det, identity, mat_vec, solve_rational
from nilspec.liealg import (
    DEFAULT_SEED,
    NilLieAlgebra,
    SampledVerdict,
    _structured_vectors,
    coadjoint_orbit_equal_2step,
    is_almost_inner_2step,
    is_strictly_nonsingular_sampled,
    sample_vector,
)
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.repspec import (
    MultiplicityRecord,
    central_dual_generator,
    moore_wolf_multiplicity,
    pesce_occurrence_and_multiplicity,
)
from nilspec.vecops import basis_vec, is_zero_vec, vdot, vec, vsub

from conftest import build_heisenberg_plus_line
from fraction_references import is_square_integrable, reference_ad_matrix, reference_table

F = Fraction


# -- the Fraction path ------------------------------------------------------------


def _reference_strictly_nonsingular(algebra, n_samples, seed):
    center = algebra.center()
    zbasis = center.basis()
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]
    checked = 0
    for x in pts:
        if center.contains(x):
            continue
        adx = reference_ad_matrix(algebra, x)
        for z in zbasis:
            if solve_rational(adx, list(z)) is None:
                return SampledVerdict(ok=False, checked=checked, counterexample=(x, tuple(z)))
        checked += 1
    return SampledVerdict(ok=True, checked=checked)


def _reference_almost_inner(algebra, m, n_samples, seed):
    rng = random.Random(seed)
    pts = _structured_vectors(algebra.dim)
    pts += [sample_vector(rng, algebra.dim) for _ in range(n_samples)]
    checked = 0
    for x in pts:
        target = vsub(vec(mat_vec(m, x)), x)
        if is_zero_vec(target):
            checked += 1
            continue
        neg = [[-v for v in row] for row in reference_ad_matrix(algebra, x)]
        if solve_rational(neg, list(target)) is None:
            return SampledVerdict(ok=False, checked=checked, counterexample=(x,))
        checked += 1
    return SampledVerdict(ok=True, checked=checked)


def _reference_orbit_equal(algebra, tau1, tau2):
    n = algebra.dim
    cols = []
    for a in range(n):
        ada = reference_ad_matrix(algebra, basis_vec(n, a))
        cols.append([sum(F(tau1[k]) * ada[k][j] for k in range(n)) for j in range(n)])
    matrix = [[cols[a][j] for a in range(n)] for j in range(n)]
    return solve_rational(matrix, list(vsub(vec(tau2), vec(tau1)))) is not None


def _reference_intersect_kernel(lattice, mat):
    basis = lattice.basis_vectors()
    prod = [
        [sum(F(mrow[k]) * b[k] for k in range(lattice.ambient)) for b in basis]
        for mrow in mat
    ]
    den = lcm(1, *(x.denominator for row in prod for x in row))
    scaled = [[int(x * den) for x in row] for row in prod]
    kernel, compl = _kernel_split(scaled, len(basis))

    def assemble(coords):
        return [
            [sum(F(c[j]) * basis[j][k] for j in range(len(basis))) for k in range(lattice.ambient)]
            for c in coords
        ]

    return assemble(kernel), assemble(compl)


def _reference_pesce(algebra, log_lattice, tau):
    tau = vec(tau)
    n = algebra.dim
    radical = [[vdot(tau, algebra.basis_bracket(k, j)) for k in range(n)] for j in range(n)]
    kern_gens, compl_gens = _reference_intersect_kernel(log_lattice, radical)
    occurs = all(vdot(tau, vec(g)).denominator == 1 for g in kern_gens)
    if all(vdot(tau, b) == 0 for b in algebra.derived(1).basis()):
        return MultiplicityRecord(tuple(tau), occurs, F(1 if occurs else 0), "character")
    b = [[vdot(tau, algebra.bracket(vec(u), vec(v))) for v in compl_gens] for u in compl_gens]
    mult = perfect_square_root(bareiss_det(b))
    assert mult == abs(pfaffian(b))
    return MultiplicityRecord(tuple(tau), occurs, mult if occurs else F(0), "pesce")


def _reference_moore_wolf(spec, tau):
    tau = vec(tau)
    algebra = spec.algebra
    center = algebra.center()
    pivots = [next(i for i, x in enumerate(r) if x) for r in center.rows]
    assert all(tau[m] == 0 for m in range(algebra.dim) if m not in pivots)
    central = spec.center_intersection()
    qalg, proj = algebra.quotient(center)
    _, qlat = spec.quotient(qalg, proj)
    section, _ = solve_rational(proj, identity(qalg.dim))
    lifts = [vec(mat_vec(section, v)) for v in qlat.basis_vectors()]
    occurs = all(vdot(tau, vec(g)).denominator == 1 for g in central.basis_vectors())
    pf = pfaffian([[vdot(tau, algebra.bracket(u, v)) for v in lifts] for u in lifts])
    return MultiplicityRecord(tuple(tau), occurs, abs(pf) if occurs else F(0), "moore_wolf")


# -- algebras and strategies --------------------------------------------------------


def _bundled_algebras():
    return {x: load(x).algebra for x in EXAMPLE_IDS}


def _bundled_quotients():
    out = {}
    for x in EXAMPLE_IDS:
        qalg, _, _, (_, qlat1), (_, qlat2) = load(x).quotient_data()
        out[x] = (qalg, qlat1, qlat2)
    return out


BUNDLED = _bundled_algebras()
QUOTIENTS = _bundled_quotients()

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
sparse_rationals = st.one_of(st.just(F(0)), rationals)


@st.composite
def two_step_algebras(draw):
    """A random 2-step algebra with fractional structure constants.

    Brackets of the first ``a`` basis vectors land in the span of the last
    ``n - a``, which bracket with nothing, so the Jacobi identity holds.
    """
    a = draw(st.integers(2, 4))
    c = draw(st.integers(1, 3))
    brackets = {}
    for i in range(a):
        for j in range(i + 1, a):
            terms = [(a + k, draw(sparse_rationals)) for k in range(c)]
            brackets[(i, j)] = terms
    return NilLieAlgebra(a + c, [f"e{i}" for i in range(a + c)], brackets), a


def _verdict_fields(v):
    return (v.ok, v.checked, v.counterexample)


# -- strict nonsingularity -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["heis_line"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), n_samples=st.integers(0, 30))
def test_strict_nonsingularity_matches_fraction_path(name, seed, n_samples):
    alg = BUNDLED.get(name) or build_heisenberg_plus_line()
    got = is_strictly_nonsingular_sampled(alg, n_samples=n_samples, seed=seed)
    assert _verdict_fields(got) == _verdict_fields(
        _reference_strictly_nonsingular(alg, n_samples, seed)
    )


def test_strict_nonsingularity_failing_branch_on_heis_line():
    alg = build_heisenberg_plus_line()
    got = is_strictly_nonsingular_sampled(alg, n_samples=50)
    assert not got.ok
    assert _verdict_fields(got) == _verdict_fields(
        _reference_strictly_nonsingular(alg, 50, DEFAULT_SEED)
    )


@settings(max_examples=40, deadline=None)
@given(data=two_step_algebras(), seed=st.integers(0, 10**6), n_samples=st.integers(0, 12))
def test_strict_nonsingularity_matches_on_fractional_constants(data, seed, n_samples):
    alg, _ = data
    got = is_strictly_nonsingular_sampled(alg, n_samples=n_samples, seed=seed)
    assert _verdict_fields(got) == _verdict_fields(
        _reference_strictly_nonsingular(alg, n_samples, seed)
    )


# -- almost-innerness ------------------------------------------------------------------


def _quotient_atoms(example_id):
    record = load(example_id)
    qalg = record.quotient_data()[0]
    return qalg, [a.matrix for a in record.quotient_witness.atoms()]


def _dilation(qalg):
    """Scaling by 2 on the first layer: an automorphism that is not almost inner."""
    n = qalg.dim
    top = {next(i for i, x in enumerate(r) if x) for r in qalg.derived(1).rows}
    return [[F(0) if i != j else F(4 if i in top else 2) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("example_id", ["II", "V"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6), n_samples=st.integers(0, 30))
def test_almost_inner_matches_fraction_path(example_id, seed, n_samples):
    qalg, atoms = _quotient_atoms(example_id)
    maps = [m for m in atoms if qalg.is_automorphism(m)] + [_dilation(qalg), identity(qalg.dim)]
    assert len(maps) >= 3
    for m in maps:
        got = is_almost_inner_2step(qalg, m, n_samples=n_samples, seed=seed)
        assert _verdict_fields(got) == _verdict_fields(
            _reference_almost_inner(qalg, m, n_samples, seed)
        )


def test_almost_inner_failing_branch():
    qalg, _ = _quotient_atoms("II")
    m = _dilation(qalg)
    assert qalg.is_automorphism(m)
    got = is_almost_inner_2step(qalg, m, n_samples=10)
    assert not got.ok and got.counterexample is not None
    assert _verdict_fields(got) == _verdict_fields(
        _reference_almost_inner(qalg, m, 10, DEFAULT_SEED)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), n_samples=st.integers(0, 10))
def test_almost_inner_matches_on_fractional_constants(data, seed, n_samples):
    alg, a = data.draw(two_step_algebras())
    n = alg.dim
    # 1 + N with N from the first layer into the last: an automorphism.  N is
    # ad(A) (inner), a random map (usually not almost inner), or their sum.
    inner = data.draw(st.lists(rationals, min_size=n, max_size=n))
    ad = reference_ad_matrix(alg, tuple(inner))
    kind = data.draw(st.sampled_from(["inner", "random", "sum"]))
    m = identity(n)
    for k in range(a, n):
        for j in range(a):
            extra = data.draw(sparse_rationals) if kind != "inner" else F(0)
            m[k][j] += (ad[k][j] if kind != "random" else F(0)) + extra
    got = is_almost_inner_2step(alg, m, n_samples=n_samples, seed=seed)
    assert _verdict_fields(got) == _verdict_fields(
        _reference_almost_inner(alg, m, n_samples, seed)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_equality_matches_fraction_path(data):
    alg, _ = data.draw(two_step_algebras())
    n = alg.dim
    tau1 = data.draw(st.lists(sparse_rationals, min_size=n, max_size=n))
    shift = data.draw(st.lists(rationals, min_size=n, max_size=n))
    # tau1 o ad(A) stays in the orbit; a random step usually leaves it.
    ad = reference_ad_matrix(alg, tuple(shift))
    along = [sum(F(tau1[k]) * ad[k][j] for k in range(n)) for j in range(n)]
    off = data.draw(st.lists(sparse_rationals, min_size=n, max_size=n))
    for step in (along, off):
        tau2 = tuple(F(t) + s for t, s in zip(tau1, step))
        assert coadjoint_orbit_equal_2step(alg, tau1, tau2) == _reference_orbit_equal(
            alg, tau1, tau2
        )


@pytest.mark.parametrize("example_id", ["I", "III"])
def test_orbit_equality_matches_on_bundled_quotients(example_id):
    qalg = QUOTIENTS[example_id][0]
    rng = random.Random(7)
    for _ in range(20):
        t1, t2 = sample_vector(rng, qalg.dim), sample_vector(rng, qalg.dim)
        for other in (t1, t2):
            assert coadjoint_orbit_equal_2step(qalg, t1, other) == _reference_orbit_equal(
                qalg, t1, other
            )


# -- multiplicities ----------------------------------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pesce_record_matches_fraction_path(example_id, data):
    qalg, qlat1, qlat2 = QUOTIENTS[example_id]
    tau = tuple(data.draw(st.lists(sparse_rationals, min_size=qalg.dim, max_size=qalg.dim)))
    for lat in (qlat1, qlat2):
        assert pesce_occurrence_and_multiplicity(qalg, lat, tau) == _reference_pesce(
            qalg, lat, tau
        )


def _rescaled(algebra, lattice, s):
    """The same algebra and lattice in the basis f_i = s_i e_i.

    [f_i, f_j] = sum_k (s_i s_j / s_k) c_ijk f_k, so integer structure
    constants become fractions, and lattice coordinates divide by s.
    """
    brackets = {
        (i, j): [(k, c * s[i] * s[j] / s[k]) for k, c in terms]
        for (i, j), terms in reference_table(algebra)
    }
    scaled = NilLieAlgebra(algebra.dim, algebra.names, brackets)
    gens = [[x / s[k] for k, x in enumerate(v)] for v in lattice.basis_vectors()]
    return scaled, IntLattice(algebra.dim, gens)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pesce_record_matches_on_fractional_constants(example_id, data):
    qalg, qlat1, qlat2 = QUOTIENTS[example_id]
    n = qalg.dim
    factors = st.sampled_from([F(1), F(2), F(1, 2), F(3), F(2, 3), F(-3, 4)])
    s = data.draw(st.lists(factors, min_size=n, max_size=n))
    tau = tuple(data.draw(st.lists(sparse_rationals, min_size=n, max_size=n)))
    for lat in (qlat1, qlat2):
        alg, scaled_lat = _rescaled(qalg, lat, s)
        assert pesce_occurrence_and_multiplicity(alg, scaled_lat, tau) == _reference_pesce(
            alg, scaled_lat, tau
        )


def test_pesce_covers_every_branch():
    """The bundled quotients reach characters, occurring and non-occurring Pesce records."""
    qalg, qlat1, _ = QUOTIENTS["III"]
    seen = set()
    rng = random.Random(3)
    for _ in range(60):
        tau = sample_vector(rng, qalg.dim)
        if rng.random() < 0.3:
            tau = tau[:4] + (F(0), F(0))  # zero on [g, g]: a character
        elif rng.random() < 0.5:
            tau = tuple(F(x.numerator) for x in tau)
        rec = pesce_occurrence_and_multiplicity(qalg, qlat1, tau)
        assert rec == _reference_pesce(qalg, qlat1, tau)
        seen.add((rec.method, rec.occurs))
    assert {("character", True), ("character", False), ("pesce", True), ("pesce", False)} <= seen


@pytest.mark.parametrize("example_id", ["III", "IV", "V"])
@settings(max_examples=15, deadline=None)
@given(num=st.integers(-7, 7).filter(bool), den=st.sampled_from([1, 2, 3, 4]))
def test_moore_wolf_matches_fraction_path(example_id, num, den):
    record = load(example_id)
    gen = central_dual_generator(record.spec1)
    tau = tuple(F(num, den) * t for t in gen)
    assert is_square_integrable(record.algebra, tau)
    for spec in (record.spec1, record.spec2):
        assert moore_wolf_multiplicity(spec, tau) == _reference_moore_wolf(spec, tau)
