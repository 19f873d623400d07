"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they are produced.  Every assertion is exact except the explicitly numeric
oracle (criterion 10) and the wall-clock limits.
"""

import random
import time
from fractions import Fraction

from nilspec.exactnum import IntLattice, bareiss_det, pfaffian
from nilspec.isosearch import SearchBudget, bounded_lattice_isomorphism_search
from nilspec.liealg import is_strictly_nonsingular_sampled, sample_vector
from nilspec.oneform import (
    assemble_E,
    det_at,
    enumerate_shell,
    nullity_at,
    s2_values_up_to,
)
from nilspec.registry import load
from nilspec.repspec import (
    certify_rep_equivalent,
    certify_isospectral,
    is_signed_permutation,
    moore_wolf_multiplicity,
    pesce_occurrence_and_multiplicity,
)
from nilspec.vecops import basis_vec

from conftest import build_heisenberg_plus_line
from fraction_references import is_square_integrable
from oneform_references import (
    covector_from_frame,
    leading_pi_coefficient,
    numeric_spectrum,
    pmul,
    poly,
    s_squared,
)

F = Fraction
HALF = F(1, 2)


def ok(line: str):
    print(f"PASS {line}")


def cov(n, vals):
    v = [F(0)] * n
    for i, c in vals:
        v[i] = F(c)
    return tuple(v)


def full_lattice(record, which):
    spec = record.spec1 if which == 1 else record.spec2
    return IntLattice(record.algebra.dim, spec.generators)


def test_criterion_1_example_iii_distinguisher():
    t0 = time.monotonic()
    record = load("III")
    alg, met = record.algebra, record.metric
    shell1 = set(enumerate_shell(alg, met, full_lattice(record, 1), F(1, 4)))
    shell2 = set(enumerate_shell(alg, met, full_lattice(record, 2), F(1, 4)))
    assert shell1 == {cov(7, [(0, HALF)]), cov(7, [(0, -HALF)]),
                      cov(7, [(1, HALF)]), cov(7, [(1, -HALF)])}
    assert shell2 == {cov(7, [(2, HALF)]), cov(7, [(2, -HALF)]),
                      cov(7, [(3, HALF)]), cov(7, [(3, -HALF)])}
    lam = record.eigen_candidate
    mults = {1: 0, 2: 0}
    for which, shell in ((1, shell1), (2, shell2)):
        for tau in shell:
            e = assemble_E(alg, met, tau)
            _, is_eig = det_at(e, lam)
            expected_zero = tau in (cov(7, [(2, HALF)]), cov(7, [(2, -HALF)]))
            assert is_eig == expected_zero, tau
            if is_eig:
                nullity, kernel = nullity_at(e, lam)
                assert nullity == 1
                (vec,) = kernel
                assert all((entry == ((), ())) == (idx != 5) for idx, entry in enumerate(vec))
                mults[which] += nullity
    assert mults == {1: 0, 2: 2}
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    ok(f"criterion 1: shells, det zero iff tau = +-beta1/2, kernel zeta2, "
       f"multiplicities 0 vs 2 ({elapsed:.2f}s < 5s)")


def test_criterion_2_example_iv_distinguisher():
    t0 = time.monotonic()
    record = load("IV")
    alg, met = record.algebra, record.metric
    lam = record.eigen_candidate
    shell1 = set(enumerate_shell(alg, met, full_lattice(record, 1), F(1, 4)))
    shell2 = set(enumerate_shell(alg, met, full_lattice(record, 2), F(1, 4)))
    assert shell1 == {cov(5, [(0, HALF)]), cov(5, [(0, -HALF)])}
    assert shell2 == {cov(5, [(1, HALF)]), cov(5, [(1, -HALF)])}
    total1 = 0
    for tau in shell1:
        e = assemble_E(alg, met, tau)
        _, is_eig = det_at(e, lam)
        assert is_eig
        nullity, kernel = nullity_at(e, lam)
        total1 += nullity
        (vec,) = kernel
        # Proportional to (0, pi i, 0, 1, pi i) up to the sign of tau.
        sign = 1 if tau[0] > 0 else -1
        assert vec[0] == vec[2] == ((), ())
        ref = vec[3][0]
        pi_i = poly(0, (0, sign))
        for idx in (1, 4):
            assert vec[idx][0] == pmul(ref, pi_i)
    assert total1 == 2
    for tau in shell2:
        e = assemble_E(alg, met, tau)
        _, is_eig = det_at(e, lam)
        assert not is_eig
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    ok(f"criterion 2: multiplicities 2 vs 0, kernel (0, pi i, 0, 1, pi i) ({elapsed:.2f}s < 2s)")


def test_criterion_3_example_v_distinguisher():
    t0 = time.monotonic()
    record = load("V")
    alg, met = record.algebra, record.metric
    lam = record.eigen_candidate
    q = F(1, 4)

    def tau_of(coeffs):
        return covector_from_frame(met, [F(c) for c in coeffs])

    shell1 = set(enumerate_shell(alg, met, full_lattice(record, 1), F(17, 16)))
    shell2 = set(enumerate_shell(alg, met, full_lattice(record, 2), F(17, 16)))
    common = {tau_of([q, 0, 0, 1]), tau_of([q, 0, 0, -1]),
              tau_of([-q, 0, 0, 1]), tau_of([-q, 0, 0, -1])}
    assert shell1 == common | {tau_of([0, q, 1, 0]), tau_of([0, -q, -1, 0])}
    assert shell2 == common | {tau_of([0, q, -1, 0]), tau_of([0, -q, 1, 0])}
    zero_set = {tau_of([0, q, -1, 0]), tau_of([0, -q, 1, 0])}
    for shell in (shell1, shell2):
        for tau in shell:
            e = assemble_E(alg, met, tau)
            _, is_eig = det_at(e, lam)
            assert is_eig == (tau in zero_set)
    rng = random.Random(31)
    for _ in range(5):
        coeffs = [F(rng.randint(-3, 3), rng.choice([1, 2, 4])) for _ in range(4)]
        tau = tau_of(coeffs)
        e = assemble_E(alg, met, tau)
        s2 = s_squared(met, tau)
        assert leading_pi_coefficient(e, lam) == (4 * s2 - F(17, 4)) ** 7
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok(f"criterion 3: shells differ only in the eps3 sign, det zero exactly at "
       f"+-(eps2/4 - eps3), leading p^14 coefficient (4S^2-17/4)^7 ({elapsed:.2f}s < 30s)")


def test_criterion_4_golden_matrices_and_charts():
    # The entrywise checks live in test_oneform / test_geometry; this runs
    # them as one gate.
    import test_geometry as tg
    import test_oneform as tf

    tg.test_chart_standard_dim7()
    tg.test_chart_standard_dim5()
    tg.test_chart_frame_metric_dim7()
    tf.test_golden_matrix_dim7()
    tf.test_golden_matrix_dim5()
    tf.test_golden_matrix_frame_metric()
    ok("criterion 4: assembled matrices and connection charts match the "
       "displayed tables entry for entry")


def test_criterion_5_multiplicity_formulas():
    record = load("III")
    qalg, _, _, (_, lat1), (_, lat2) = record.quotient_data()
    for c1 in (1, 2, 3):
        tau = cov(6, [(4, c1)])
        for lat in (lat1, lat2):
            rec = pesce_occurrence_and_multiplicity(qalg, lat, tau)
            assert rec.occurs and rec.multiplicity == 4 * c1 * c1
    for c2 in (1, 2, 3):
        tau_a = cov(6, [(1, HALF), (5, c2)])  # A2 half-integral
        r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau_a)
        r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau_a)
        assert r1.occurs and not r2.occurs and r1.multiplicity == 2 * c2
        tau_b = cov(6, [(2, HALF), (5, c2)])  # B1 half-integral
        r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau_b)
        r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau_b)
        assert not r1.occurs and r2.occurs and r2.multiplicity == 2 * c2
    ok("criterion 5: sector multiplicities 4*C1^2 and 2|C2| with the two "
       "occurrence conditions")


def test_criterion_6_certificates():
    t0 = time.monotonic()
    for ex in ("I", "II"):
        record = load(ex)
        cert = certify_rep_equivalent(record, record.quotient_witness)
        assert cert.kind == "rep_equivalent" and cert.ok
    for ex in ("III", "IV"):
        record = load(ex)
        iso_cert = certify_isospectral(record, record.quotient_witness)
        assert iso_cert.ok
        cor = certify_rep_equivalent(record, None)
        assert cor.kind == "not_rep_equivalent" and cor.ok
        assert cor.checked_claims[0]["name"] == "occurrence_mismatch"
    record = load("V")
    iso_cert = certify_isospectral(record, record.quotient_witness)
    assert iso_cert.ok
    qalg, _, qmetric, _, _ = record.quotient_data()
    psi1, psi2 = record.quotient_witness.factors
    assert psi1.kind == "isometry"
    assert is_signed_permutation(qmetric.frame_matrix(psi1.matrix))
    assert psi2.kind == "almost_inner"
    claims = {c["name"]: c for c in iso_cert.checked_claims}
    assert claims["central_shift:almost_inner"]["details"]["note"] == "verified_on_sample"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ok(f"criterion 6: certificates for all five pairs with verified witnesses "
       f"({elapsed:.2f}s < 10s)")


def test_criterion_7_central_multiplicity_suite():
    rng = random.Random(77)
    for ex in ("I", "II", "III", "IV", "V"):
        record = load(ex)
        c1 = record.spec1.center_intersection()
        c2 = record.spec2.center_intersection()
        assert c1 == c2
        n = record.algebra.dim
        for c in range(-5, 6):
            if c == 0:
                continue
            tau = tuple(F(c) * x for x in basis_vec(n, n - 1))
            r1 = moore_wolf_multiplicity(record.spec1, tau)
            r2 = moore_wolf_multiplicity(record.spec2, tau)
            assert r1.occurs and r2.occurs and r1.multiplicity == r2.multiplicity
        # Cross-oracle on the 2-step quotient.
        qalg, _, _, (qspec1, qlat1), (qspec2, qlat2) = record.quotient_data()
        pivots = [next(i for i, x in enumerate(r) if x) for r in qalg.center().rows]
        checked = 0
        while checked < 50:
            tau = [F(0)] * qalg.dim
            for m in pivots:
                tau[m] = F(rng.randint(-5, 5))
            tau = tuple(tau)
            if not is_square_integrable(qalg, tau):
                continue
            for qspec, qlat in ((qspec1, qlat1), (qspec2, qlat2)):
                pesce = pesce_occurrence_and_multiplicity(qalg, qlat, tau)
                mw = moore_wolf_multiplicity(qspec, tau)
                assert (pesce.occurs, pesce.multiplicity) == (mw.occurs, mw.multiplicity)
            checked += 1
    ok("criterion 7: center lattices equal, central multiplicities match "
       "across each pair, 50-sample cross-oracle per example")


def test_criterion_8_structural_suite():
    rng = random.Random(88)
    seen = set()
    for ex in ("I", "II"):
        record = load(ex)
        alg = record.algebra
        if alg.dim in seen:
            continue
        seen.add(alg.dim)
        report = alg.validate()
        assert report.jacobi_ok and report.step == 3
        for _ in range(200):
            x, y, z = (sample_vector(rng, alg.dim) for _ in range(3))
            assert alg.cbh(alg.cbh(x, y), z) == alg.cbh(x, alg.cbh(y, z))
        verdict = is_strictly_nonsingular_sampled(alg, n_samples=1000)
        assert verdict.ok and verdict.checked >= 1000
    control = is_strictly_nonsingular_sampled(build_heisenberg_plus_line(), n_samples=100)
    assert not control.ok and control.counterexample is not None
    count = 0
    for n in (2, 4, 6):
        for _ in range(70):
            a = [[F(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(n)]
            skew = [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]
            assert pfaffian(skew) ** 2 == bareiss_det(skew)
            count += 1
    assert count >= 200
    ok("criterion 8: Jacobi + step 3, 200-triple group-law associativity, "
       "1000-sample strict nonsingularity with negative control, 210 Pf^2 = det checks")


def test_criterion_9_character_s2_multisets():
    for ex in ("I", "II", "III", "IV", "V"):
        record = load(ex)
        vals1 = s2_values_up_to(record.algebra, record.metric, full_lattice(record, 1), F(10))
        vals2 = s2_values_up_to(record.algebra, record.metric, full_lattice(record, 2), F(10))
        assert vals1 == vals2
    ok("criterion 9: character S^2 multisets up to 10 identical within each pair")


def test_criterion_10_numeric_oracle():
    pi = 3.141592653589793
    for ex, taus in (
        ("III", [cov(7, [(2, HALF)]), cov(7, [(2, -HALF)])]),
        ("IV", [cov(5, [(0, HALF)]), cov(5, [(0, -HALF)])]),
    ):
        record = load(ex)
        lam_val = pi * pi + 1
        for tau in taus:
            e = assemble_E(record.algebra, record.metric, tau)
            spec = numeric_spectrum(e, pi)
            assert min(abs(x - lam_val) for x in spec) < 1e-9
    ok("criterion 10: numeric spectra contain every certified eigenvalue within 1e-9")


def test_criterion_11_bounded_isomorphism_searches():
    t0 = time.monotonic()
    budget = SearchBudget(bound=4)
    for ex in ("III", "IV"):
        record = load(ex)
        out = bounded_lattice_isomorphism_search(
            record.algebra, record.spec1, record.spec2, budget
        )
        assert out.found is None and out.exhausted
    record = load("II")
    out = bounded_lattice_isomorphism_search(
        record.algebra, record.spec1, record.spec2, budget
    )
    assert out.found == record.iso_witness
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    ok(f"criterion 11: searches exhaust for III and IV and find the bundled "
       f"isomorphism for II ({elapsed:.1f}s < 600s; evidence, not proof)")
