"""Cocompact discrete subgroups via adapted exponential generators.

A lattice is specified by ordered generator logs v_1..v_n: every group
element factors uniquely as exp(t_1 v_1)...exp(t_n v_n), and membership is
integrality of all t_i.  Each generator tail must span an ideal, which makes
the peeling in `malcev_coordinates` triangular.

The peel runs on Python integers in generator coordinates, on the tables of
``gen_algebra``, the spec's algebra in generator coordinates (one
``NilLieAlgebra.in_basis``), plus the inverse change of basis over one
denominator.  A vector c loses its leading generator t = c_i through the
step-3 group law, c <- c - t v_i - (t/2) ad_i(c) + (t^2 ad_i^2(c) +
t [c, ad_i(c)]) / 12, and because [g, tail_i] lies in tail_{i+1} the next
coordinate is read off directly.  This step stays specialised rather than
calling ``cbh_int``: it brackets with v_i alone and reuses ad_i(c), and
each candidate the search takes is tested.  Numerators and denominator
are reduced by their gcd after every generator.  Validation reads the same
tables: the tails are ideals when no [v_a, v_b], a < b, has a v_k with
k < b, the basis is adapted when each exp(v_i) exp(v_j) peels to integers,
and `quotient`, the one constructor of projected lattices, reads Z-span
closure off the projected spec's tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from .exactnum import IntLattice, bareiss_det, rat_from_str
from .exactnum.matrix import invert_rational, mat_vec
from .liealg import NilLieAlgebra, Subspace
from .vecops import clear_denominators, clear_rows, is_zero_vec, vscale


class LatticeSpec:
    """Ordered adapted generator logs of a cocompact discrete subgroup."""

    def __init__(self, algebra: NilLieAlgebra, generators):
        self.algebra = algebra
        gens = [tuple(Fraction(x) for x in g) for g in generators]
        n = algebra.dim
        if len(gens) != n:
            raise ValueError("need one generator per dimension")
        for g in gens:
            if len(g) != n:
                raise ValueError("generator dimension mismatch")
        self.generators = gens
        # Change of basis: columns are generator logs.
        cols = [[gens[j][i] for j in range(n)] for i in range(n)]
        try:
            to_gen = invert_rational(cols)
        except ValueError:
            raise ValueError("generators are linearly dependent") from None
        self._to_gen, self._to_gen_den = clear_rows(to_gen)
        self.gen_algebra = algebra.in_basis(
            gens, self.generator_coordinates, [f"v{i}" for i in range(1, n + 1)]
        )
        self._check_tails()
        self._validate_adapted()

    def _check_tails(self):
        # [v_a, v_b] with a v_k below b breaks every tail starting in k+1..b.
        low = [k for _, b, k, _ in self.gen_algebra.structure_tensor()[0] if k < b]
        if low:
            raise ValueError(f"generator tail starting at {min(low) + 1} is not an ideal")

    def _validate_adapted(self):
        if self.algebra.step > 3:
            raise ValueError("group law implemented only through step 3")
        den = 12 * self.gen_algebra.structure_tensor()[1] ** 2
        for i, j in permutations(range(self.algebra.dim), 2):
            if any(t % d for t, d in self._peel(self._product_int(i, j)[1], den)):
                raise ValueError("generator products leave the lattice: not an adapted basis")

    def _gen_coords_int(self, vnum, vden):
        """Generator coordinates of vnum / vden as (integer numerators, denominator)."""
        return (
            [sum(m * x for m, x in zip(row, vnum)) for row in self._to_gen],
            self._to_gen_den * vden,
        )

    def generator_coordinates(self, v):
        """Linear coordinates of a vector in the generator basis."""
        nums, den = self._gen_coords_int(*clear_denominators(v))
        return tuple(Fraction(x, den) for x in nums)

    # -- group arithmetic in log coordinates ------------------------------------

    def _product_int(self, i, j):
        """[v_i, v_j] over sd and log(exp v_i exp v_j) over 12 sd^2, in generator
        coordinates; sd is ``gen_algebra``'s structure-constant denominator."""
        unit_i, unit_j = ([int(k == m) for k in range(self.algebra.dim)] for m in (i, j))
        return self.gen_algebra.bracket_int(unit_i, unit_j), self.gen_algebra.cbh_int(unit_i, unit_j)

    def _peel(self, num, den):
        """Yield each Malcev coordinate of num / den as (numerator, denominator).

        num are integer generator coordinates over the positive integer den.
        The state is c = num/den; peeling v_i is c <- cbh(-t v_i, c) with
        t = c_i, written over the common denominator 12 sd^2 den^3 (sd is the
        structure-constant denominator).
        """
        g = gcd(den, *num)
        num = [x // g for x in num]
        den //= g
        ad, bracket = self.gen_algebra.ad_int, self.gen_algebra.bracket_int
        sd = self.gen_algebra.structure_tensor()[1]
        for i in range(len(num)):
            t = num[i]
            yield t, den
            if not t:
                continue
            num[i] = 0
            adc = ad(i, num)  # ad_i(c) * sd * den
            if any(adc):
                ad2c = ad(i, adc)  # ad_i^2(c) * sd^2 * den
                # [c, ad_i(c)] * sd^2 * den^2 is brk + t * ad2c, since c = c' + t v_i.
                brk = bracket(num, adc)
                keep = 12 * sd * sd * den * den
                half = 6 * sd * den * t
                num = [
                    keep * x - half * y + t * (2 * t * z + w)
                    for x, y, z, w in zip(num, adc, ad2c, brk)
                ]
                den = 12 * sd * sd * den**3
            g = gcd(den, *num)
            num = [x // g for x in num]
            den //= g
        if any(num):
            raise AssertionError("peeling failed to terminate")

    def malcev_coordinates(self, g_log):
        """The unique exponents with exp(g) = exp(t_1 v_1)...exp(t_n v_n)."""
        coords = self._gen_coords_int(*clear_denominators(g_log))
        return [Fraction(t, den) for t, den in self._peel(*coords)]

    def contains(self, g_log) -> bool:
        return self.contains_scaled(*clear_denominators(g_log))

    def contains_scaled(self, vnum, vden) -> bool:
        """Membership of log vnum / vden, for integers vnum over a positive vden."""
        return all(t % den == 0 for t, den in self._peel(*self._gen_coords_int(vnum, vden)))

    # -- center ------------------------------------------------------------------

    def center_intersection(self) -> IntLattice:
        """The IntLattice log(Gamma cap Z(G)): the Z-span of the central generator suffix.

        Raises ValueError unless that suffix spans the center
        (``algebra.center()``) and is maximal in the lattice.
        """
        center = self.algebra.center()
        n = self.algebra.dim
        suffix = n
        while suffix > 0 and center.contains(self.generators[suffix - 1]):
            suffix -= 1
        tail = self.generators[suffix:]
        if Subspace(n, tail) != center:
            raise ValueError("central generator suffix does not span the center")
        for g in tail:
            if self.contains(vscale(Fraction(1, 2), g)):
                raise ValueError("central suffix is not maximal in the lattice")
        return IntLattice(n, tail)

    # -- quotient ------------------------------------------------------------------

    def quotient(self, quot_alg: NilLieAlgebra, proj):
        """(spec, log_lattice) projected by ``quot_alg, proj = algebra.quotient(ideal)``.

        The spec lives on quot_alg.  The returned IntLattice is the Z-span of the projected generator
        logs; the projection is only accepted when that span is closed under
        the quotient group law (pairwise products and brackets stay inside),
        so the span really is the log of the projected subgroup.
        """
        projected = [tuple(mat_vec(proj, g)) for g in self.generators]
        surviving = [p for p in projected if not is_zero_vec(p)]
        if len(surviving) != quot_alg.dim:
            raise ValueError("projected generators do not form a basis")
        spec = LatticeSpec(quot_alg, surviving)
        # The Z-span is the set of integer generator coordinates of spec.
        sd = spec.gen_algebra.structure_tensor()[1]
        for a, b in product(range(quot_alg.dim), repeat=2):
            brk, prod = spec._product_int(a, b)
            if any(x % (12 * sd * sd) for x in prod):
                raise ValueError("projected span is not closed under the group law")
            if any(x % sd for x in brk):
                raise ValueError("projected span is not bracket-closed")
        return spec, IntLattice(quot_alg.dim, surviving)

    def log_cover_lattice(self, subspace: Subspace) -> IntLattice:
        """A lattice containing log(Gamma cap exp S) for an ideal S.

        Valid when the generators outside S stay independent in g/S, so the
        S-generators generate the intersection subgroup.  The Z-span of
        their logs is saturated under products and brackets; the result can
        be strictly larger than the true log set, which is fine for callers
        that re-verify membership, and never smaller.
        """
        if not self.algebra.is_ideal(subspace):
            raise ValueError("subspace is not an ideal")
        inside = [g for g in self.generators if subspace.contains(g)]
        outside = [g for g in self.generators if not subspace.contains(g)]
        # Independent in g/S exactly when they add their number to dim S.
        n = self.algebra.dim
        if Subspace(n, [*subspace.rows, *outside]).dim != subspace.dim + len(outside):
            raise ValueError("generators do not split along the subspace")
        lattice = IntLattice(n, inside)
        for _ in range(6):
            basis = [tuple(b) for b in lattice.basis_vectors()]
            extra = []
            # Unordered pairs suffice: cbh(b, a) = cbh(a, b) - [a, b] through
            # step 3, cbh(a, a) = 2a and [a, a] = 0.
            for a, b in combinations(basis, 2):
                for v in (self.algebra.cbh(a, b), self.algebra.bracket(a, b)):
                    if not lattice.member(v):
                        extra.append(v)
            if not extra:
                return lattice
            lattice = IntLattice(n, basis + extra)
        raise ValueError("log cover did not stabilize")

    @staticmethod
    def from_json(data: dict, algebra: NilLieAlgebra) -> "LatticeSpec":
        gens = [[rat_from_str(x) for x in g] for g in data["generators"]]
        return LatticeSpec(algebra, gens)


def maps_onto(psi, spec1: LatticeSpec, spec2: LatticeSpec) -> bool:
    """Whether the linear map psi carries the lattice of spec1 onto spec2.

    Onto is checked in both directions: psi sends every generator of the
    first lattice into the second, and psi^-1 sends every generator of the
    second into the first.  A singular psi maps nothing onto anything.
    """
    try:
        inv = invert_rational(psi)
    except ValueError:
        return False
    return all(spec2.contains(mat_vec(psi, g)) for g in spec1.generators) and all(
        spec1.contains(mat_vec(inv, g)) for g in spec2.generators
    )


def quotient_covolume(log_lattice: IntLattice, orthonormal_columns) -> Fraction:
    """Squared covolume: Gram determinant in the orthonormal frame."""
    basis = log_lattice.basis_vectors()
    if len(basis) != log_lattice.ambient:
        raise ValueError("squared covolume requires a full-rank lattice")
    frame_inv = invert_rational(orthonormal_columns)
    coords = [mat_vec(frame_inv, b) for b in basis]
    gram = [
        [
            sum(coords[a][k] * coords[b][k] for k in range(len(coords)))
            for b in range(len(coords))
        ]
        for a in range(len(coords))
    ]
    return bareiss_det(gram)
