"""Representation multiplicities and the isospectrality certifiers.

Occurrence and multiplicity of induced representations in the quasi-regular
representation of a nilmanifold are computed exactly: for 2-step quotients
from the skew form tau([.,.]) on a lattice basis (square root of its
determinant), and for central functionals from a Pfaffian normalized by a
Z-basis of the quotient log lattice.  ``Pair.pesce`` and ``Pair.moore_wolf``
give both lattices' records for one functional, and ``sector_check`` is the
sector layer: the one place that compares a sector's multiplicities on the
two lattices, exactly on central functionals or on functionals sampled in
the sector.  Certificates bundle every verified claim so a verdict can be
replayed check by check.

Both multiplicities run on integers.  With tau = t / dt cleared,
``NilLieAlgebra.form_scaled(t)`` is S * tau([e_i, e_j]) for S = den * dt,
lattice vectors are integer rows over the lattice's denominator D, and a
pairing of r such vectors is S * D^2 times the rational one: occurrence is
a divisibility test, and the determinant and Pfaffian are divided by the
known scales (S D^2)^r and (S D^2)^(r/2).
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exactnum import IntLattice, perfect_square_root, pfaffian
from .exactnum.matrix import bareiss_det, identity, mat_mul, mat_vec, solve_rational, transpose
from .exactnum.scalars import rat_to_str
from .geometry import Metric
from .lattices import LatticeSpec, maps_onto, quotient_covolume
from .liealg import (
    CERTIFY_SAMPLES,
    DEFAULT_SEED,
    SECTOR_SAMPLES,
    NilLieAlgebra,
    coadjoint_orbit_equal_2step,
    find_inner_witness,
    is_almost_inner_2step,
    is_strictly_nonsingular_sampled,
    sample_fraction,
)
from .vecops import clear_denominators, clear_rows, vdot, vec


class MultiplicityRecord(NamedTuple):
    tau: tuple
    occurs: bool
    multiplicity: Fraction
    method: str  # "pesce" | "moore_wolf" | "character"

    def to_json(self) -> dict:
        return {
            "tau": [rat_to_str(t) for t in self.tau],
            "occurs": self.occurs,
            "multiplicity": rat_to_str(self.multiplicity),
            "method": self.method,
        }


class SectorFlag:
    """Increasing chain of central subspaces classifying functionals.

    labels[j] names the sector of functionals vanishing on chain[0..j-1]
    but not on chain[j]; labels[-1] is the everything-vanishes sector.
    """

    def __init__(self, chain: list, labels: list):
        if len(labels) != len(chain) + 1:
            raise ValueError("need one label per chain step plus one")
        for a, b in zip(chain, chain[1:]):
            if not (b.contains_subspace(a) and b.dim > a.dim):
                raise ValueError("chain must be strictly increasing")
        self.chain = chain
        self.labels = labels

    def classify(self, tau) -> str:
        for j, sub in enumerate(self.chain):
            if any(vdot(tau, b) != 0 for b in sub.basis()):
                return self.labels[j]
        return self.labels[-1]


class Pair:
    """A pair of lattices in one group with a common left-invariant metric."""

    def __init__(self, name: str, algebra: NilLieAlgebra, metric: Metric,
                 spec1: LatticeSpec, spec2: LatticeSpec):
        self.name = name
        self.algebra = algebra
        self.metric = metric
        self.spec1 = spec1
        self.spec2 = spec2
        self._quotient = None

    def quotient_data(self):
        """(qalgebra, proj, qmetric, (qspec1, qlat1), (qspec2, qlat2))."""
        if self._quotient is None:
            ideal = self.algebra.derived(self.algebra.step - 1)
            qalg, proj = self.algebra.quotient(ideal)
            qmetric = self.metric.quotient(ideal, qalg, proj)
            q1, q2 = self.spec1.quotient(qalg, proj), self.spec2.quotient(qalg, proj)
            self._quotient = (qalg, proj, qmetric, q1, q2)
        return self._quotient

    def pesce(self, tau) -> tuple:
        """Both projected lattices' records for a functional on the 2-step quotient."""
        qalg, _, _, (_, qlat1), (_, qlat2) = self.quotient_data()
        return (
            pesce_occurrence_and_multiplicity(qalg, qlat1, tau),
            pesce_occurrence_and_multiplicity(qalg, qlat2, tau),
        )

    def moore_wolf(self, tau) -> tuple:
        """Both lattices' records for a central functional."""
        return moore_wolf_multiplicity(self.spec1, tau), moore_wolf_multiplicity(self.spec2, tau)


class ExampleRecord(Pair):
    """A bundled Pair with its witnesses, sector data and eigenvalue target."""

    def __init__(
        self,
        name: str,
        algebra: NilLieAlgebra,
        metric: Metric,
        spec1: LatticeSpec,
        spec2: LatticeSpec,
        quotient_witness: Witness,
        rep_equivalent_witness: Witness | None,
        sector_flag: SectorFlag,
        sector_modes: dict,
        pairing_map: list | None,
        iso_witness: list | None,
        eigen_candidate,  # a oneform.Candidate, or None
        s2_target: Fraction | None,
    ):
        super().__init__(name, algebra, metric, spec1, spec2)
        self.quotient_witness = quotient_witness
        self.rep_equivalent_witness = rep_equivalent_witness
        self.sector_flag = sector_flag
        self.sector_modes = sector_modes
        self.pairing_map = pairing_map
        self.iso_witness = iso_witness
        self.eigen_candidate = eigen_candidate
        self.s2_target = s2_target


# -- multiplicities -------------------------------------------------------------


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _pairing(form, vectors):
    """The integer matrix u_a^T form u_b over the given integer vectors."""
    images = [[_dot(row, v) for row in form] for v in vectors]  # form . u_b
    return [[_dot(u, fv) for fv in images] for u in vectors]


def pesce_occurrence_and_multiplicity(
    algebra: NilLieAlgebra, log_lattice: IntLattice, tau
) -> MultiplicityRecord:
    """Occurrence and multiplicity for a 2-step lattice quotient.

    Occurrence is integrality of tau on the lattice's intersection with the
    radical of tau([.,.]); the multiplicity is 1 for characters and the
    square root of det tau([u_a, u_b]) over a Z-basis of the complement
    otherwise.
    """
    if algebra.step > 2:
        raise ValueError("occurrence test implemented only for 2-step algebras")
    tau = vec(tau)
    t, dt = clear_denominators(tau)
    form = algebra.form_scaled(t)
    # Row j of the radical's matrix is Y -> tau([Y, e_j]).
    kernel, compl = log_lattice.intersect_kernel([list(col) for col in zip(*form)])
    occurs = all(_dot(t, w) % (dt * log_lattice.den) == 0 for w in kernel)
    # A character vanishes on [g, g], the span of all brackets.
    if not any(map(any, form)):
        return MultiplicityRecord(
            tau=tuple(tau),
            occurs=occurs,
            multiplicity=Fraction(1 if occurs else 0),
            method="character",
        )
    b = _pairing(form, compl)
    scale = algebra.structure_tensor()[1] * dt * log_lattice.den**2
    r = len(b)
    mult = perfect_square_root(Fraction(bareiss_det(b), scale**r))
    if mult != abs(Fraction(pfaffian(b), scale ** (r // 2))):
        raise AssertionError("Pfaffian and square-root multiplicities disagree")
    return MultiplicityRecord(
        tau=tuple(tau),
        occurs=occurs,
        multiplicity=mult if occurs else Fraction(0),
        method="pesce",
    )


def _off_center(algebra: NilLieAlgebra) -> tuple:
    """The coordinates that are not pivots of the center's reduced rows."""
    pivots = algebra.center().pivots
    return tuple(m for m in range(algebra.dim) if m not in pivots)


def _nondegenerate(form, coords) -> bool:
    """Whether the form is nondegenerate on the span of the given coordinates."""
    return bool(coords) and bareiss_det([[form[u][v] for v in coords] for u in coords]) != 0


class _CentralData(NamedTuple):
    """What moore_wolf_multiplicity needs of a lattice, whatever tau is."""

    complement: tuple  # coordinates off the center, for square integrability
    central: list  # Z-basis of log(Gamma cap Z(G)), integer rows over central_den
    central_den: int
    lifts: list  # lifts of a Z-basis of the quotient, integer rows over lift_den
    lift_den: int


# Keyed weakly by LatticeSpec, so the data lives exactly as long as its spec.
# A value depends only on its spec, which is never changed after construction,
# so sharing the table between callers cannot let one affect another.
_CENTRAL_DATA = weakref.WeakKeyDictionary()


def _central_data(spec: LatticeSpec) -> _CentralData:
    data = _CENTRAL_DATA.get(spec)
    if data is not None:
        return data
    algebra = spec.algebra
    center = algebra.center()
    central = spec.center_intersection()
    qalg, proj = algebra.quotient(center)
    _, qlat = spec.quotient(qalg, proj)
    # Sections of the projection differ by central vectors, which brackets
    # kill, so any lift computes tau([.,.]) on the quotient.
    section, _ = solve_rational(proj, identity(qalg.dim))
    central_rows, central_den = clear_rows(central.basis_vectors())
    lift_rows, lift_den = clear_rows(mat_vec(section, v) for v in qlat.basis_vectors())
    data = _CentralData(_off_center(algebra), central_rows, central_den, lift_rows, lift_den)
    _CENTRAL_DATA[spec] = data
    return data


def moore_wolf_multiplicity(spec: LatticeSpec, tau) -> MultiplicityRecord:
    """Occurrence and multiplicity for a central functional.

    tau must be supported on the center (zero on the complementary standard
    coordinates) and square integrable.  The unit-covolume normalization is
    realized by evaluating the Pfaffian of tau([.,.]) in a Z-basis of the
    quotient-by-center log lattice.  Everything that does not depend on tau
    is computed once per spec.
    """
    tau = vec(tau)
    data = _central_data(spec)
    if any(tau[m] != 0 for m in data.complement):
        raise ValueError("functional is not supported on the center")
    t, dt = clear_denominators(tau)
    form = spec.algebra.form_scaled(t)
    if not _nondegenerate(form, data.complement):
        raise ValueError("functional is not square integrable")
    occurs = all(_dot(t, g) % (dt * data.central_den) == 0 for g in data.central)
    b = _pairing(form, data.lifts)
    scale = spec.algebra.structure_tensor()[1] * dt * data.lift_den**2
    pf = Fraction(pfaffian(b), scale ** (len(b) // 2))
    return MultiplicityRecord(
        tau=tuple(tau),
        occurs=occurs,
        multiplicity=abs(pf) if occurs else Fraction(0),
        method="moore_wolf",
    )


def central_dual_generator(spec: LatticeSpec) -> tuple:
    """Covector supported on the center pairing to 1 with the central lattice.

    Only implemented for rank-one centers, which covers the bundled data.
    """
    basis = spec.center_intersection().basis_vectors()
    if len(basis) != 1:
        raise ValueError("central dual generator needs a rank-one center")
    b = basis[0]
    pivots = spec.algebra.center().pivots
    tau = [Fraction(0)] * spec.algebra.dim
    # Supported on the center, pairing to 1: solve on the pivot coordinates.
    sol = solve_rational([[b[m] for m in pivots]], [Fraction(1)])
    for m, v in zip(pivots, sol[0]):
        tau[m] = v
    return tuple(tau)


# -- witnesses ------------------------------------------------------------------


class Witness(NamedTuple):
    kind: str  # "almost_inner" | "inner" | "isometry" | "composite"
    matrix: list | None = None
    factors: list | tuple = ()
    name: str = ""

    def total_matrix(self):
        if self.kind != "composite":
            return self.matrix
        total = None
        for f in self.factors:
            m = f.total_matrix()
            total = m if total is None else mat_mul(total, m)
        return total

    def atoms(self):
        if self.kind == "composite":
            out = []
            for f in self.factors:
                out.extend(f.atoms())
            return out
        return [self]

    def to_json(self) -> dict:
        out = {"kind": self.kind, "name": self.name}
        if self.kind == "composite":
            out["factors"] = [f.to_json() for f in self.factors]
        else:
            out["matrix"] = [[rat_to_str(x) for x in row] for row in self.matrix]
        return out


def is_signed_permutation(m) -> bool:
    n = len(m)
    seen_cols = set()
    for j in range(n):
        hits = [i for i in range(n) if m[i][j] != 0]
        if len(hits) != 1 or abs(m[hits[0]][j]) != 1:
            return False
        seen_cols.add(hits[0])
    return len(seen_cols) == n


def is_isometry(metric: Metric, m) -> bool:
    f = metric.frame_matrix(m)
    n = len(f)
    ft = [[f[j][i] for j in range(n)] for i in range(n)]
    return mat_mul(ft, f) == identity(n)


# -- certificates -----------------------------------------------------------------


class Certificate:
    def __init__(self, kind: str, ok: bool, pair: str):
        self.kind = kind  # "isospectral" | "rep_equivalent" | "not_rep_equivalent"
        self.ok = ok
        self.pair = pair
        self.checked_claims = []
        self.witnesses = []
        self.failed_check = None

    def claim(self, name: str, ok: bool, **details):
        entry = {"name": name, "ok": bool(ok)}
        if details:
            entry["details"] = details
        self.checked_claims.append(entry)
        if not ok and self.failed_check is None:
            self.failed_check = name
        return ok

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "pair": self.pair,
            "failed_check": self.failed_check,
            "checked_claims": self.checked_claims,
            "witnesses": self.witnesses,
        }


def _verify_atom(cert: Certificate, qalg, qmetric, atom: Witness,
                 n_samples: int, seed: int) -> bool:
    label = atom.name or atom.kind
    okauto = qalg.is_automorphism(atom.matrix)
    cert.claim(f"{label}:automorphism", okauto)
    if not okauto:
        return False
    if atom.kind == "isometry":
        ok = is_isometry(qmetric, atom.matrix)
        cert.claim(
            f"{label}:isometry",
            ok,
            signed_permutation=is_signed_permutation(qmetric.frame_matrix(atom.matrix)),
        )
        return ok
    if atom.kind == "inner":
        witness = find_inner_witness(qalg, atom.matrix)
        ok = witness is not None
        cert.claim(
            f"{label}:inner",
            ok,
            conjugator=[rat_to_str(x) for x in witness] if witness else None,
        )
        return ok
    if atom.kind == "almost_inner":
        verdict = is_almost_inner_2step(qalg, atom.matrix, n_samples=n_samples, seed=seed)
        cert.claim(
            f"{label}:almost_inner",
            verdict.ok,
            checked=verdict.checked,
            seed=seed,
            note="verified_on_sample",
        )
        return verdict.ok
    cert.claim(f"{label}:kind", False, unknown_kind=atom.kind)
    return False


def _witness_maps_lattices(cert: Certificate, label, qspec1, qspec2, total) -> bool:
    return cert.claim(f"{label}:maps_lattice_onto", maps_onto(total, qspec1, qspec2))


def certify_isospectral(
    pair: Pair, witness: Witness, n_samples: int = CERTIFY_SAMPLES, seed: int = DEFAULT_SEED
) -> Certificate:
    """Isospectrality certificate for a lattice pair.

    Verifies strict nonsingularity (sampled), equality of center lattices,
    the quotient-isospectrality witness (isometry, almost inner, or a
    composition), covolume agreement, and that the witness carries one
    projected lattice onto the other.
    """
    cert = Certificate(kind="isospectral", ok=False, pair=pair.name)
    cert.witnesses.append(witness.to_json())
    sns = is_strictly_nonsingular_sampled(
        pair.algebra, n_samples=max(n_samples, CERTIFY_SAMPLES), seed=seed
    )
    cert.claim(
        "strictly_nonsingular",
        sns.ok,
        checked=sns.checked,
        seed=seed,
        note="verified_on_sample",
    )
    cert.claim(
        "center_lattices_equal",
        pair.spec1.center_intersection() == pair.spec2.center_intersection(),
    )
    qalg, _, qmetric, (qspec1, qlat1), (qspec2, qlat2) = pair.quotient_data()
    cert.claim(
        "quotient_covolumes_equal",
        quotient_covolume(qlat1, qmetric.matrix)
        == quotient_covolume(qlat2, qmetric.matrix),
    )
    ok_atoms = all(
        _verify_atom(cert, qalg, qmetric, atom, n_samples, seed)
        for atom in witness.atoms()
    )
    if ok_atoms:
        total = witness.total_matrix()
        _witness_maps_lattices(cert, witness.name or witness.kind, qspec1, qspec2, total)
    cert.ok = all(c["ok"] for c in cert.checked_claims)
    return cert


OCCURRENCE_GRID = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 4),
    Fraction(-1, 4),
    Fraction(2),
    Fraction(-2),
)


def find_occurrence_mismatch(pair: Pair):
    """A functional occurring for exactly one of the projected lattices.

    Deterministic scan over functionals with at most two nonzero dual
    coordinates from a small grid; returns (tau, record1, record2) or None.
    """
    n = pair.quotient_data()[0].dim

    def candidates():
        for i in range(n):
            for a in OCCURRENCE_GRID:
                t = [Fraction(0)] * n
                t[i] = a
                yield tuple(t)
        for i in range(n):
            for j in range(i + 1, n):
                for a in OCCURRENCE_GRID:
                    for b in OCCURRENCE_GRID:
                        t = [Fraction(0)] * n
                        t[i], t[j] = a, b
                        yield tuple(t)

    for tau in candidates():
        r1, r2 = pair.pesce(tau)
        if r1.occurs != r2.occurs:
            return tau, r1, r2
    return None


def certify_rep_equivalent(
    pair: Pair,
    witness: Witness | None = None,
    n_samples: int = CERTIFY_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Certificate:
    """Representation-equivalence verdict for a lattice pair.

    YES requires equal center lattices plus a verified almost-inner (or
    inner) quotient witness mapping one projected lattice onto the other.
    NO is proved constructively by a functional whose occurrence differs
    between the two quotients.
    """
    qalg, _, qmetric, (qspec1, _), (qspec2, _) = pair.quotient_data()
    centers_equal = pair.spec1.center_intersection() == pair.spec2.center_intersection()

    witness_ok = False
    if witness is not None and centers_equal:
        probe = Certificate(kind="rep_equivalent", ok=False, pair=pair.name)
        atoms = witness.atoms()
        kinds_ok = all(a.kind in ("almost_inner", "inner") for a in atoms)
        if kinds_ok and all(
            _verify_atom(probe, qalg, qmetric, a, n_samples, seed) for a in atoms
        ):
            witness_ok = _witness_maps_lattices(
                probe, witness.name or witness.kind, qspec1, qspec2, witness.total_matrix()
            )
        if witness_ok:
            cert = probe
            cert.witnesses.append(witness.to_json())
            cert.claim("center_lattices_equal", True)
            cert.ok = True
            return cert

    mismatch = find_occurrence_mismatch(pair)
    if mismatch is not None:
        tau, r1, r2 = mismatch
        cert = Certificate(kind="not_rep_equivalent", ok=True, pair=pair.name)
        cert.claim(
            "occurrence_mismatch",
            True,
            tau=[rat_to_str(t) for t in tau],
            lattice1=r1.to_json(),
            lattice2=r2.to_json(),
        )
        if not centers_equal:
            cert.claim("center_lattices_differ", True)
        return cert
    if not centers_equal:
        cert = Certificate(kind="not_rep_equivalent", ok=True, pair=pair.name)
        cert.claim("center_lattices_differ", True)
        return cert
    cert = Certificate(kind="rep_equivalent", ok=False, pair=pair.name)
    cert.claim("no_witness_and_no_refutation", False)
    return cert


def orbit_pairing_report(
    pair: Pair,
    sector: SectorFlag,
    sector_label: str,
    phi_full,
    n_samples: int = SECTOR_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Pairing of a sector with its image under an isometric automorphism.

    For sampled functionals in the named sector (nonzero central value kept
    integral so occurrence is possible), checks that tau o phi satisfies the
    same occurrence conditions, lies in a different coadjoint orbit, and has
    the same multiplicity.  This pairs eigenvalue contributions in twos on
    top of even multiplicities, the computable core of the mod-4 statement.
    """
    algebra = pair.algebra
    if not algebra.is_automorphism(phi_full):
        raise ValueError("pairing map is not an automorphism")
    if not is_isometry(pair.metric, phi_full):
        raise ValueError("pairing map is not an isometry")
    qalg, proj = pair.quotient_data()[:2]
    section, _ = solve_rational(proj, identity(qalg.dim))
    phi_t = transpose(mat_mul(proj, mat_mul(phi_full, section)))
    checked = 0
    for tau_q in _sector_samples(pair, sector, sector_label, n_samples, seed):
        failure = _pairing_failure(pair, tau_q, mat_vec(phi_t, tau_q))
        if failure is not None:
            return {"ok": False, "checked": checked, "failure": failure}
        checked += 1
    return {
        "ok": 1 <= checked == n_samples,
        "checked": checked,
        "seed": seed,
        "note": "verified_on_sample",
    }


def _pairing_failure(pair: Pair, tau_q, tau_phi) -> dict | None:
    """Why tau and tau o phi do not pair, or None when they do."""
    failure = {"tau": [rat_to_str(t) for t in tau_q]}
    for r, rp in zip(pair.pesce(tau_q), pair.pesce(tau_phi)):
        if r.occurs != rp.occurs or r.multiplicity != rp.multiplicity:
            return failure
        if r.occurs and r.multiplicity % 2 != 0:
            return {**failure, "reason": "odd multiplicity"}
    if coadjoint_orbit_equal_2step(pair.quotient_data()[0], tau_q, tau_phi):
        return {**failure, "reason": "paired orbits coincide"}
    return None


def sector_check(
    pair: Pair, sector: SectorFlag, label: str, mode: str, phi_full, n_samples: int, seed: int
) -> dict:
    """Compare the named sector's multiplicities on the pair's two lattices.

    ``moore_wolf``: the central dual generator tau0 of lattice 1 occurs with
    the same multiplicity on both lattices.  ``pesce_equal``: so does each of
    n_samples functionals sampled in the sector, on the 2-step quotient.
    ``pairing``: ``orbit_pairing_report`` with phi_full.  A sampled mode is
    ok only when all n_samples functionals were checked.

    tau0 decides the Moore-Wolf sector by homogeneity.  It pairs to 1 with
    lattice 1's central generator, so c tau0 occurs on lattice 1 for every
    integer c; on lattice 2 it does for every integer c exactly when tau0
    does.  Where it occurs, the multiplicity is |Pf(c B)| = |c|^(r/2) |Pf(B)|
    with r = dim g - dim z, the same on both lattices, so every c agrees
    exactly when c = 1 does.
    """
    if mode == "moore_wolf":
        ok = _agree(pair.moore_wolf(central_dual_generator(pair.spec1)))
        return {"mode": "moore_wolf", "ok": ok}
    if mode == "pesce_equal":
        checked = 0
        for tau_q in _sector_samples(pair, sector, label, n_samples, seed):
            if not _agree(pair.pesce(tau_q)):
                break
            checked += 1
        return {
            "mode": "pesce_equal",
            "ok": 1 <= checked == n_samples,
            "checked": checked,
            "note": "verified_on_sample",
        }
    if mode == "pairing":
        return {"mode": "pairing", **orbit_pairing_report(pair, sector, label, phi_full, n_samples, seed)}
    raise ValueError(f"unknown sector mode {mode!r}")


def _agree(records) -> bool:
    """Whether the two lattices' records give the same occurrence and multiplicity."""
    r1, r2 = records
    return (r1.occurs, r1.multiplicity) == (r2.occurs, r2.multiplicity)


def _sector_samples(pair: Pair, sector: SectorFlag, label: str, n_samples: int, seed: int):
    """Up to n_samples random quotient functionals whose lifts lie in the named sector.

    Vanishing on the deeper chain subspaces is linear, so each functional is
    drawn from that solution space, one ``Random(seed)`` for all of them, and
    scaled to make the sector's central values integral (occurrence-relevant)
    and nonzero.  The sampler stops early when 60 draws in a row miss the
    sector, and yields nothing for the label past the chain.
    """
    idx = sector.labels.index(label)
    if idx >= len(sector.chain):
        return
    qalg, proj = pair.quotient_data()[:2]
    lift = transpose(proj)  # a quotient covector times this is its lift to g
    constraints = [list(mat_vec(proj, b)) for b in (sector.chain[idx - 1].basis() if idx else [])]
    if constraints:
        kernel = solve_rational(constraints, [Fraction(0)] * len(constraints))[1]
    else:
        kernel = identity(qalg.dim)
    own = sector.chain[idx].basis()
    rng = random.Random(seed)
    for _ in range(n_samples):
        for _ in range(60):
            tau_q = tuple(
                sum(sample_fraction(rng) * Fraction(k[a]) for k in kernel)
                for a in range(qalg.dim)
            )
            lifted = mat_vec(lift, tau_q)
            vals = [vdot(lifted, b) for b in own]
            if all(v == 0 for v in vals):
                continue
            # The sector of a lift is where it first pairs nonzero, the same for any nonzero multiple.
            if sector.classify(lifted) == label:
                scale = lcm(*[v.denominator for v in vals])
                yield tuple(scale * t for t in tau_q)
                break
        else:
            return
