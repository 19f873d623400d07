"""Test-side references for the sector layer.

The sector sampling and comparison as written before ``repspec.sector_check``
owned them, kept to pin the new paths:

- ``reference_sector_samples``: the kernel of the chain step before the
  sector, computed once, then the 60-try sampler called once per sample on
  one ``Random(seed)`` until it returns None.
- ``reference_orbit_pairing_report``: the orbit-pairing loop over that
  sampler, with its old rule that any checked functional makes it ok.
- ``reference_sector_checks``: ``distinguish_pair``'s per-mode sector block.
"""

import random
from fractions import Fraction
from math import lcm

from nilspec.exactnum.matrix import identity, mat_mul, mat_vec, solve_rational
from nilspec.exactnum.scalars import rat_to_str
from nilspec.liealg import coadjoint_orbit_equal_2step, sample_fraction
from nilspec.repspec import (
    central_dual_generator,
    moore_wolf_multiplicity,
    pesce_occurrence_and_multiplicity,
)
from nilspec.vecops import vdot


def _lift_through(proj, tau_q, dim):
    qdim = len(proj)
    return tuple(
        sum(Fraction(tau_q[a]) * proj[a][m] for a in range(qdim)) for m in range(dim)
    )


def _sector_kernel(sector, sector_label, qalg, proj):
    idx = sector.labels.index(sector_label)
    if idx >= len(sector.chain):
        return None
    constraints = [list(mat_vec(proj, b)) for b in (sector.chain[idx - 1].basis() if idx > 0 else [])]
    if not constraints:
        return identity(qalg.dim)
    return solve_rational(constraints, [Fraction(0)] * len(constraints))[1]


def _sample_sector_functional(pair, sector, sector_label, rng, proj, kernel):
    if kernel is None:
        return None
    idx = sector.labels.index(sector_label)
    for _ in range(60):
        tau_q = tuple(
            sum(sample_fraction(rng) * Fraction(k[a]) for k in kernel)
            for a in range(len(proj))
        )
        lift = _lift_through(proj, tau_q, pair.algebra.dim)
        vals = [vdot(lift, b) for b in sector.chain[idx].basis()]
        if all(v == 0 for v in vals):
            continue
        scale = lcm(*[v.denominator for v in vals]) if vals else 1
        tau_q = tuple(scale * t for t in tau_q)
        if sector.classify(_lift_through(proj, tau_q, pair.algebra.dim)) == sector_label:
            return tau_q
    return None


def _draw(pair, sector, label, seed):
    """Endless sampler calls on one Random(seed); None once the sampler fails."""
    qalg, proj = pair.quotient_data()[:2]
    rng = random.Random(seed)
    kernel = _sector_kernel(sector, label, qalg, proj)
    while True:
        yield _sample_sector_functional(pair, sector, label, rng, proj, kernel)


def reference_sector_samples(pair, sector, label, n_samples, seed) -> list:
    draws = _draw(pair, sector, label, seed)
    out = []
    while len(out) < n_samples:
        tau_q = next(draws)
        if tau_q is None:
            break
        out.append(tau_q)
    return out


def reference_orbit_pairing_report(pair, sector, sector_label, phi_full, n_samples, seed) -> dict:
    qalg, proj, _, (_, qlat1), (_, qlat2) = pair.quotient_data()
    section, _ = solve_rational(proj, identity(qalg.dim))
    phi_q = mat_mul(proj, mat_mul(phi_full, section))
    draws = _draw(pair, sector, sector_label, seed)
    checked = 0
    while checked < n_samples:
        tau_q = next(draws)
        if tau_q is None:
            break
        tau_phi = tuple(
            sum(Fraction(tau_q[m]) * phi_q[m][j] for m in range(qalg.dim))
            for j in range(qalg.dim)
        )
        for qlat in (qlat1, qlat2):
            r = pesce_occurrence_and_multiplicity(qalg, qlat, tau_q)
            rp = pesce_occurrence_and_multiplicity(qalg, qlat, tau_phi)
            if r.occurs != rp.occurs or r.multiplicity != rp.multiplicity:
                return {
                    "ok": False,
                    "checked": checked,
                    "failure": {"tau": [rat_to_str(t) for t in tau_q]},
                }
            if r.occurs and r.multiplicity % 2 != 0:
                return {
                    "ok": False,
                    "checked": checked,
                    "failure": {
                        "tau": [rat_to_str(t) for t in tau_q],
                        "reason": "odd multiplicity",
                    },
                }
        if coadjoint_orbit_equal_2step(qalg, tau_q, tau_phi):
            return {
                "ok": False,
                "checked": checked,
                "failure": {
                    "tau": [rat_to_str(t) for t in tau_q],
                    "reason": "paired orbits coincide",
                },
            }
        checked += 1
    return {"ok": checked >= 1, "checked": checked, "seed": seed, "note": "verified_on_sample"}


def reference_sector_check(record, label, mode, n_samples, seed) -> dict:
    qalg, _, _, (_, qlat1), (_, qlat2) = record.quotient_data()
    if mode == "moore_wolf":
        gen1 = central_dual_generator(record.spec1)
        ok = True
        for c in (1, -1, 2, -2, 3, -3):
            tau = tuple(Fraction(c) * t for t in gen1)
            r1 = moore_wolf_multiplicity(record.spec1, tau)
            r2 = moore_wolf_multiplicity(record.spec2, tau)
            if (r1.occurs, r1.multiplicity) != (r2.occurs, r2.multiplicity):
                ok = False
                break
        return {"mode": "moore_wolf", "ok": ok}
    if mode == "pesce_equal":
        draws = _draw(record, record.sector_flag, label, seed)
        checked = 0
        ok = True
        while checked < n_samples:
            tau_q = next(draws)
            if tau_q is None:
                ok = False
                break
            r1 = pesce_occurrence_and_multiplicity(qalg, qlat1, tau_q)
            r2 = pesce_occurrence_and_multiplicity(qalg, qlat2, tau_q)
            if (r1.occurs, r1.multiplicity) != (r2.occurs, r2.multiplicity):
                ok = False
                break
            checked += 1
        return {
            "mode": "pesce_equal",
            "ok": ok and checked >= 1,
            "checked": checked,
            "note": "verified_on_sample",
        }
    if mode == "pairing":
        report = reference_orbit_pairing_report(
            record, record.sector_flag, label, record.pairing_map, n_samples, seed
        )
        return {"mode": "pairing", **report}
    raise ValueError(f"unknown sector mode {mode!r}")


def reference_sector_checks(record, n_samples, seed) -> dict:
    return {
        label: reference_sector_check(record, label, mode, n_samples, seed)
        for label, mode in sorted(record.sector_modes.items())
    }
