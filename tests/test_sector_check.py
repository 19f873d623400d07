"""The sector layer against the sampling and comparison code it replaced.

``repspec._sector_samples`` must draw the same functionals in the same order
as the old kernel-then-sampler loop, ``repspec.sector_check`` must return the
old ``distinguish_pair`` sector dicts, and ``Pair.pesce`` / ``Pair.moore_wolf``
must be the direct multiplicity calls on the two lattices.
"""

import copy
from fractions import Fraction
from itertools import islice

import pytest

from nilspec import repspec
from nilspec.oneform import distinguish_pair
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.repspec import (
    OCCURRENCE_GRID,
    MultiplicityRecord,
    central_dual_generator,
    certify_rep_equivalent,
    find_occurrence_mismatch,
    moore_wolf_multiplicity,
    orbit_pairing_report,
    pesce_occurrence_and_multiplicity,
    sector_check,
)

import sector_references
from sector_references import (
    reference_orbit_pairing_report,
    reference_sector_check,
    reference_sector_samples,
)

SAMPLED = ("III", "IV", "V")
SEEDS = range(1, 11)
SIZES = (1, 3, 12, 30)


def _labels():
    for example_id in SAMPLED:
        for label in load(example_id).sector_flag.labels:
            yield example_id, label


@pytest.mark.parametrize("example_id,label", list(_labels()))
def test_sector_samples_match_the_old_sampler(example_id, label):
    # Every label: the first draws a functional that is zero on the quotient's
    # image of the first chain step, so its sampler runs dry at once; the
    # last lies past the chain and yields nothing.
    record = load(example_id)
    flag = record.sector_flag
    idx = flag.labels.index(label)
    dry = idx == 0 or idx >= len(flag.chain)
    for seed in SEEDS:
        for n in SIZES[:1] if dry else SIZES:
            got = list(repspec._sector_samples(record, flag, label, n, seed))
            assert got == reference_sector_samples(record, flag, label, n, seed), (seed, n)
            assert (got == []) == dry


def test_sampled_labels_are_not_dry():
    # The grid above compares full draws, not only early stops.
    for example_id in SAMPLED:
        record = load(example_id)
        for label, mode in record.sector_modes.items():
            if mode != "moore_wolf":
                got = list(repspec._sector_samples(record, record.sector_flag, label, 30, 1))
                assert len(got) == 30, (example_id, label)


def test_sector_kernel_is_solved_once_per_sampler(monkeypatch):
    calls = []
    original = repspec.solve_rational

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repspec, "solve_rational", counted)
    for example_id in SAMPLED:
        record = load(example_id)
        flag = record.sector_flag
        record.quotient_data()
        for label in flag.labels[1 : len(flag.chain)]:
            calls.clear()
            assert len(list(repspec._sector_samples(record, flag, label, 12, 1))) == 12
            assert len(calls) == 1, (example_id, label)


def _memoized_pesce(monkeypatch):
    # Pure in its arguments; the grid below asks for the same records many times.
    table = {}
    original = repspec.pesce_occurrence_and_multiplicity

    def pesce(algebra, log_lattice, tau):
        key = (id(algebra), id(log_lattice), tuple(tau))
        if key not in table:
            table[key] = original(algebra, log_lattice, tau)
        return table[key]

    for module in (repspec, sector_references):
        monkeypatch.setattr(module, "pesce_occurrence_and_multiplicity", pesce)


@pytest.mark.parametrize("example_id", SAMPLED)
def test_sector_check_matches_the_old_sector_block(example_id, monkeypatch):
    _memoized_pesce(monkeypatch)
    record = load(example_id)
    for label, mode in sorted(record.sector_modes.items()):
        grid = [(0, 1)] if mode == "moore_wolf" else [(n, s) for s in SEEDS for n in SIZES]
        for n, seed in grid:
            got = sector_check(record, record.sector_flag, label, mode, record.pairing_map, n, seed)
            assert got == reference_sector_check(record, label, mode, n, seed), (label, n, seed)


def test_unknown_sector_mode_raises():
    record = load("III")
    with pytest.raises(ValueError, match="unknown sector mode"):
        sector_check(record, record.sector_flag, "II", "bogus", None, 3, 1)


@pytest.mark.parametrize("mode,label", [("pesce_equal", "III"), ("pairing", "II")])
def test_a_sampler_that_runs_dry_is_not_ok(mode, label, monkeypatch):
    # Two functionals where five were asked for: the sector is not verified.
    original = repspec._sector_samples
    monkeypatch.setattr(
        repspec,
        "_sector_samples",
        lambda pair, sector, lab, n, seed: islice(original(pair, sector, lab, n, seed), 2),
    )
    record = load("III")
    got = sector_check(record, record.sector_flag, label, mode, record.pairing_map, 5, 1)
    assert (got["ok"], got["checked"]) == (False, 2)
    full = sector_check(record, record.sector_flag, label, mode, record.pairing_map, 2, 1)
    assert (full["ok"], full["checked"]) == (True, 2)


@pytest.mark.parametrize("defect", ["records differ", "odd multiplicity", "paired orbits coincide"])
def test_orbit_pairing_failures_match_the_old_loop(defect, monkeypatch):
    # The bundled pairings never fail, so each defect is injected into the
    # calls both loops make, and the failure entries are compared.
    record = load("III")
    flag = record.sector_flag
    sampled = set(repspec._sector_samples(record, flag, "II", 3, 1))
    original = repspec.pesce_occurrence_and_multiplicity

    def pesce(algebra, log_lattice, tau):
        r = original(algebra, log_lattice, tau)
        if defect == "records differ":
            return r._replace(occurs=True, multiplicity=Fraction(2 if r.tau in sampled else 4))
        return r._replace(occurs=True, multiplicity=Fraction(1))

    for module in (repspec, sector_references):
        if defect == "paired orbits coincide":
            monkeypatch.setattr(module, "coadjoint_orbit_equal_2step", lambda *args: True)
        else:
            monkeypatch.setattr(module, "pesce_occurrence_and_multiplicity", pesce)
    got = orbit_pairing_report(record, flag, "II", record.pairing_map, n_samples=3, seed=1)
    assert got == reference_orbit_pairing_report(record, flag, "II", record.pairing_map, 3, 1)
    assert (got["ok"], got["checked"]) == (False, 0)
    assert got["failure"].get("reason", "records differ") == defect


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_pair_records_are_the_direct_calls(example_id):
    record = load(example_id)
    qalg, _, _, (_, qlat1), (_, qlat2) = record.quotient_data()
    taus = [
        tuple(a if m in (i, qalg.dim - 1) else Fraction(0) for m in range(qalg.dim))
        for i in range(qalg.dim)
        for a in OCCURRENCE_GRID[:4]
    ]
    mismatch = find_occurrence_mismatch(record)
    if mismatch is not None:
        # A functional the two lattices disagree on, so a swap would show.
        taus.append(mismatch[0])
    for tau in taus:
        assert record.pesce(tau) == (
            pesce_occurrence_and_multiplicity(qalg, qlat1, tau),
            pesce_occurrence_and_multiplicity(qalg, qlat2, tau),
        )
    gen = central_dual_generator(record.spec1)
    for c in (1, -2, 3):
        tau = tuple(Fraction(c) * t for t in gen)
        assert record.moore_wolf(tau) == (
            moore_wolf_multiplicity(record.spec1, tau),
            moore_wolf_multiplicity(record.spec2, tau),
        )


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_moore_wolf_multiplicity_is_homogeneous_in_c(example_id):
    # sector_check decides the Moore-Wolf sector at tau0 alone: c tau0 occurs
    # on both lattices, with |c|^(r/2) times tau0's multiplicity, r = dim g - dim z.
    record = load(example_id)
    tau0 = central_dual_generator(record.spec1)
    half = (record.algebra.dim - record.algebra.center().dim) // 2
    base = record.moore_wolf(tau0)
    for c in range(-5, 6):
        if c:
            for got, ref in zip(record.moore_wolf(tuple(c * t for t in tau0)), base):
                assert got.occurs and ref.occurs, c
                assert got.multiplicity == abs(c) ** half * ref.multiplicity, c


def test_pair_records_follow_the_lattice_order(monkeypatch):
    # The bundled pairs' Moore-Wolf records agree on every central functional
    # tried, so only the arguments show which lattice each record came from.
    monkeypatch.setattr(repspec, "moore_wolf_multiplicity", lambda spec, tau: (spec, tau))
    monkeypatch.setattr(repspec, "pesce_occurrence_and_multiplicity", lambda a, lat, tau: (lat, tau))
    pair = load("III")
    _, _, _, (_, qlat1), (_, qlat2) = pair.quotient_data()
    (s1, t1), (s2, t2) = pair.moore_wolf("tau")
    assert s1 is pair.spec1 and s2 is pair.spec2 and t1 == t2 == "tau"
    (l1, _), (l2, _) = pair.pesce("tau")
    assert l1 is qlat1 and l2 is qlat2


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_one_form_isospectral_exactly_when_rep_equivalent(example_id):
    # table_one reads the rep-equivalence column from this verdict.
    record = load(example_id)
    cert = certify_rep_equivalent(record, record.quotient_witness)
    verdict = distinguish_pair(record)["verdict"]
    assert (verdict == "one_form_isospectral") == (cert.kind == "rep_equivalent" and cert.ok)


@pytest.mark.parametrize("mode, label", [("moore_wolf", "IV"), ("pesce_equal", "III")])
@pytest.mark.parametrize("multiplicities", [(1, 2), (2, 2)], ids=["differ", "agree"])
def test_a_sector_is_ok_only_when_the_multiplicities_agree_too(mode, label, multiplicities):
    # No bundled sector has records that agree on occurrence and differ on
    # multiplicity, so a copy of pair III answers with stubbed records.
    pair = copy.copy(load("III"))

    def records(tau):
        return tuple(MultiplicityRecord(tuple(tau), True, Fraction(m), "stub") for m in multiplicities)

    pair.pesce = pair.moore_wolf = records
    got = sector_check(pair, pair.sector_flag, label, mode, pair.pairing_map, 3, 1)
    assert got["ok"] is (multiplicities[0] == multiplicities[1])
