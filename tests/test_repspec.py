import random
from fractions import Fraction

import pytest

from nilspec import registry
from nilspec.liealg import NilLieAlgebra
from nilspec.oneform import distinguish_pair
from nilspec.registry import load
from nilspec.repspec import (
    Witness,
    central_dual_generator,
    certify_rep_equivalent,
    certify_isospectral,
    find_occurrence_mismatch,
    is_isometry,
    is_signed_permutation,
    moore_wolf_multiplicity,
    orbit_pairing_report,
    pesce_occurrence_and_multiplicity,
)
from nilspec.exactnum.matrix import identity
from nilspec.vecops import basis_vec

from fraction_references import is_square_integrable, vzero

F = Fraction


def qcov(n, vals):
    v = [F(0)] * n
    for idx, c in vals:
        v[idx] = F(c)
    return tuple(v)


def quotient_of(example_id):
    record = load(example_id)
    return record, record.quotient_data()


def test_pesce_sector_iii_multiplicity():
    # Central functionals C1 zeta1 + C2 zeta2 with C1 != 0: multiplicity 4 C1^2.
    _, (qalg, _, _, (q1, lat1), (q2, lat2)) = quotient_of("III")
    for c1 in (1, 2, 3):
        for c2 in (0, 1, -2):
            tau = qcov(6, [(4, c1), (5, c2)])
            r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
            r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
            assert r1.occurs and r2.occurs
            assert r1.multiplicity == r2.multiplicity == 4 * c1 * c1
            assert r1.method == "pesce"


def test_pesce_sector_ii_occurrence_conditions():
    _, (qalg, _, _, (q1, lat1), (q2, lat2)) = quotient_of("III")
    half = F(1, 2)
    for c2 in (1, 2, 3):
        # A2 = 1/2, B1 = 0: occurs only for the first lattice.
        tau = qcov(6, [(1, half), (5, c2)])
        r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
        r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
        assert r1.occurs and not r2.occurs
        assert r1.multiplicity == 2 * abs(c2)
        assert r2.multiplicity == 0
        # B1 = 1/2, A2 = 0: occurs only for the second lattice.
        tau = qcov(6, [(2, half), (5, c2)])
        r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
        r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
        assert not r1.occurs and r2.occurs
        assert r2.multiplicity == 2 * abs(c2)
        # Both integral: occurs for both with equal multiplicity.
        tau = qcov(6, [(1, 1), (2, 2), (5, c2)])
        r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
        r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
        assert r1.occurs and r2.occurs
        assert r1.multiplicity == r2.multiplicity == 2 * abs(c2)


def test_pesce_character_sector():
    _, (qalg, _, _, (q1, lat1), (q2, lat2)) = quotient_of("III")
    half = F(1, 2)
    tau = qcov(6, [(0, half)])  # alpha1/2: occurs for lattice 1 only
    r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
    r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
    assert r1.method == r2.method == "character"
    assert r1.occurs and r1.multiplicity == 1
    assert not r2.occurs and r2.multiplicity == 0


def test_pesce_rejects_3step():
    record = load("I")
    with pytest.raises(ValueError):
        pesce_occurrence_and_multiplicity(
            record.algebra, record.spec1.center_intersection(), vzero(7)
        )


def test_square_integrability():
    record = load("I")
    omega = basis_vec(7, 6)
    assert is_square_integrable(record.algebra, omega)
    assert not is_square_integrable(record.algebra, vzero(7))
    # Odd-dimensional quotient by the center: never square integrable.
    filiform = NilLieAlgebra(
        4, ["a", "b", "c", "d"], {(0, 1): [(2, F(1))], (0, 2): [(3, F(1))]}
    )
    assert not is_square_integrable(filiform, basis_vec(4, 3))


def test_moore_wolf_example_i():
    record = load("I")
    for c in (1, -1, 2, 5):
        tau = tuple(F(c) * x for x in basis_vec(7, 6))
        r1 = moore_wolf_multiplicity(record.spec1, tau)
        r2 = moore_wolf_multiplicity(record.spec2, tau)
        assert r1.occurs and r2.occurs
        assert r1.multiplicity == r2.multiplicity == 4 * abs(c) ** 3
    half = tuple(F(1, 2) * x for x in basis_vec(7, 6))
    r = moore_wolf_multiplicity(record.spec1, half)
    assert not r.occurs and r.multiplicity == 0


def test_moore_wolf_rejects_bad_functionals():
    record = load("I")
    with pytest.raises(ValueError):
        moore_wolf_multiplicity(record.spec1, vzero(7))  # not square integrable
    with pytest.raises(ValueError):
        moore_wolf_multiplicity(record.spec1, basis_vec(7, 4))  # not central


def test_moore_wolf_equal_across_all_pairs():
    for ex in ("I", "II", "III", "IV", "V"):
        record = load(ex)
        n = record.algebra.dim
        for c in range(-5, 6):
            if c == 0:
                continue
            tau = tuple(F(c) * x for x in basis_vec(n, n - 1))
            r1 = moore_wolf_multiplicity(record.spec1, tau)
            r2 = moore_wolf_multiplicity(record.spec2, tau)
            assert r1.occurs and r2.occurs
            assert r1.multiplicity == r2.multiplicity


def test_cross_oracle_pesce_vs_moore_wolf():
    # Central 2-step functionals on the quotient: both routes agree.
    rng = random.Random(7)
    for ex in ("I", "III", "V", "II", "IV"):
        pair, (qalg, _, _, (qspec1, qlat1), (qspec2, qlat2)) = quotient_of(ex)
        center = qalg.center()
        pivots = [next(i for i, x in enumerate(r) if x) for r in center.rows]
        checked = 0
        while checked < 50:
            tau = [F(0)] * qalg.dim
            for m in pivots:
                tau[m] = F(rng.randint(-6, 6))
            tau = tuple(tau)
            if not is_square_integrable(qalg, tau):
                continue
            for qspec, qlat in ((qspec1, qlat1), (qspec2, qlat2)):
                pesce = pesce_occurrence_and_multiplicity(qalg, qlat, tau)
                mw = moore_wolf_multiplicity(qspec, tau)
                assert pesce.occurs == mw.occurs
                assert pesce.multiplicity == mw.multiplicity
            checked += 1


def test_sector_flag_classification():
    record = load("III")
    flag = record.sector_flag
    assert flag.classify(basis_vec(7, 6)) == "IV"
    assert flag.classify(qcov(7, [(4, 1), (0, F(1, 2))])) == "III"
    assert flag.classify(qcov(7, [(5, 3)])) == "II"
    assert flag.classify(qcov(7, [(0, 1), (2, F(1, 4))])) == "I"
    # The vanishing pattern is scale invariant.
    rng = random.Random(11)
    for _ in range(40):
        tau = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(7))
        c = F(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2]))
        assert flag.classify(tau) == flag.classify(tuple(c * t for t in tau))


def test_isometry_and_signed_permutation_checks():
    record = load("V")
    qalg, _, qmetric, _, _ = record.quotient_data()
    psi1, psi2 = record.quotient_witness.factors
    assert qalg.is_automorphism(psi1.matrix)
    assert is_isometry(qmetric, psi1.matrix)
    fm = qmetric.frame_matrix(psi1.matrix)
    assert is_signed_permutation(fm)
    diag = [fm[i][i] for i in range(6)]
    assert diag == [F(-1), F(1), F(-1), F(1), F(1), F(-1)]
    assert not is_isometry(qmetric, psi2.matrix)
    # Composition of the factors equals the projected map of the bundled
    # full-dimensional isomorphism witness.
    total = record.quotient_witness.total_matrix()
    full = record.iso_witness
    proj_total = [[full[i][j] for j in range(6)] for i in range(6)]
    assert total == proj_total


def test_certify_isospectral_all_examples():
    for ex in ("I", "II", "III", "IV", "V"):
        record = load(ex)
        cert = certify_isospectral(record, record.quotient_witness)
        assert cert.ok, (ex, cert.failed_check)
        names = [c["name"] for c in cert.checked_claims]
        assert "strictly_nonsingular" in names
        assert "center_lattices_equal" in names
        assert "quotient_covolumes_equal" in names


def test_certify_isospectral_rejects_identity_witness():
    record = load("III")
    bad = Witness(kind="isometry", matrix=identity(6), name="identity")
    cert = certify_isospectral(record, bad)
    assert not cert.ok
    assert cert.failed_check == "identity:maps_lattice_onto"


def test_certify_rep_equivalent_positive():
    for ex in ("I", "II"):
        record = load(ex)
        cert = certify_rep_equivalent(record, record.rep_equivalent_witness)
        assert cert.kind == "rep_equivalent" and cert.ok


def test_certify_rep_equivalent_self_pair():
    record = load("I")
    from nilspec.repspec import Pair

    self_pair = Pair("I.self", record.algebra, record.metric, record.spec1, record.spec1)
    ident = Witness(kind="inner", matrix=identity(6), name="identity")
    cert = certify_rep_equivalent(self_pair, ident)
    assert cert.kind == "rep_equivalent" and cert.ok


def test_certify_rep_equivalent_negative():
    for ex in ("III", "IV", "V"):
        record = load(ex)
        cert = certify_rep_equivalent(record, record.rep_equivalent_witness)
        assert cert.kind == "not_rep_equivalent" and cert.ok
        claim = cert.checked_claims[0]
        assert claim["name"] == "occurrence_mismatch"
        assert claim["details"]["lattice1"]["occurs"] != claim["details"]["lattice2"]["occurs"]


def test_example_iii_specific_mismatch_functional():
    # A2 = 1/2, B1 = 0, C2 = 1 occurs for the first quotient lattice only.
    _, (qalg, _, _, (_, lat1), (_, lat2)) = quotient_of("III")
    tau = qcov(6, [(1, F(1, 2)), (5, 1)])
    r1 = pesce_occurrence_and_multiplicity(qalg, lat1, tau)
    r2 = pesce_occurrence_and_multiplicity(qalg, lat2, tau)
    assert r1.occurs and not r2.occurs


def test_find_occurrence_mismatch_examples():
    for ex, expect in (("I", False), ("II", False), ("III", True), ("IV", True), ("V", True)):
        record = load(ex)
        got = find_occurrence_mismatch(record)
        assert (got is not None) == expect


def test_orbit_pairing_example_iii():
    record = load("III")
    report = orbit_pairing_report(
        record, record.sector_flag, "II", record.pairing_map, n_samples=25
    )
    assert report["ok"]
    assert report["checked"] >= 25


def test_orbit_pairing_without_samples_is_not_ok():
    record = load("III")
    report = orbit_pairing_report(
        record, record.sector_flag, "II", record.pairing_map, n_samples=0
    )
    assert report["checked"] == 0 and not report["ok"]


def test_distinguish_without_samples_claims_nothing():
    report = distinguish_pair(load("III"), n_samples=0)
    sampled = [s for s in report["sector_checks"].values() if s["mode"] != "moore_wolf"]
    assert sampled and not any(s["ok"] for s in sampled)
    assert report["verdict"] == "inconclusive"


def test_orbit_pairing_rejects_non_isometry():
    record = load("III")
    shear = identity(7)
    shear[4][0] = F(1)  # X1 -> X1 + Z1: automorphism? irrelevant, not isometry
    with pytest.raises(ValueError):
        orbit_pairing_report(record, record.sector_flag, "II", shear)


def test_certificates_are_replayable():
    record = load("III")
    first = certify_isospectral(record, record.quotient_witness)
    second = certify_isospectral(record, record.quotient_witness)
    assert first.to_json() == second.to_json()
    neg1 = certify_rep_equivalent(record, None)
    neg2 = certify_rep_equivalent(record, None)
    assert neg1.to_json() == neg2.to_json()


def test_moore_wolf_cache_matches_fresh_load(monkeypatch):
    records = [load(ex) for ex in ("III", "IV", "V")]
    calls = []
    for _ in range(2):
        for c in (1, -1, 2, -3):
            for record in records:
                tau = tuple(F(c) * t for t in central_dual_generator(record.spec1))
                for side in ("spec1", "spec2"):
                    spec = getattr(record, side)
                    calls.append((record.name, side, spec, tau, moore_wolf_multiplicity(spec, tau)))
    for example_id, side, spec, tau, got in calls:
        # An empty registry cache gives new specs with nothing computed yet.
        monkeypatch.setattr(registry, "_CACHE", {})
        fresh = getattr(load(example_id), side)
        assert fresh is not spec
        assert moore_wolf_multiplicity(fresh, tau) == got


def test_quotient_data_specs_live_on_the_quotient_algebra():
    for x in registry.EXAMPLE_IDS:
        qalg, _, _, (qspec1, _), (qspec2, _) = load(x).quotient_data()
        assert qspec1.algebra is qalg and qspec2.algebra is qalg
