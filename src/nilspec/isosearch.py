"""Bounded search for lattice-carrying Lie group isomorphisms.

Searches for an automorphism of the ambient algebra mapping one lattice
onto another, with every generator image drawn from a bounded box.  The
search space is organized column by column (images of the first lattice's
generators); canonically defined ideals restrict each column, accumulated
bracket relations become exact integer linear systems, and bilinear
relations between two undetermined columns are probed for global
infeasibility first, which is what makes exhaustion cheap when no
isomorphism exists.

A negative outcome means precisely: no automorphism maps the first lattice
onto the second while sending each generator v_i to a point of the log-cover
lattice inside the L-infinity box of radius bound * |v_i|_1.  It is evidence
bounded by that box, never a nonisomorphism proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import IntLattice, integer_kernel, solve_integer
from .exactnum.matrix import invert_rational, mat_mul
from .lattices import LatticeSpec, maps_onto
from .liealg import NilLieAlgebra, Subspace
from .vecops import basis_vec, vdot


class SearchSpaceExceeded(RuntimeError):
    pass


@dataclass
class SearchBudget:
    bound: int = 4
    node_ceiling: int = 200_000
    probe_ceiling: int = 60_000


@dataclass
class SearchOutcome:
    found: list | None
    exhausted: bool
    nodes: int
    note: str = ""


def canonical_subspaces(algebra: NilLieAlgebra):
    """Proper nonzero subspaces preserved by every automorphism."""
    base = []
    for k in range(1, algebra.step):
        base.append(algebra.derived(k))
    base.append(algebra.center())
    for k in range(1, algebra.step):
        base.append(algebra.centralizer(algebra.derived(k)))
    closure = list(base)
    for a in base:
        for b in base:
            closure.append(a.intersection(b))
    out = []
    for sub in closure:
        if 0 < sub.dim < algebra.dim and sub not in out:
            out.append(sub)
    return out


def _full_subspace(algebra):
    return Subspace(algebra.dim, [basis_vec(algebra.dim, i) for i in range(algebra.dim)])


class _Column:
    def __init__(self, index, gen, subspace, lattice, box, member_test):
        self.index = index
        self.gen = gen
        self.subspace = subspace
        self.lattice = lattice
        self.box = box
        self.member_test = member_test
        self.central = False
        self._cached = None

    def all_candidates(self, ceiling, counter):
        """Boxed lattice members, enumerated and filtered once, then reused."""
        if self._cached is None:
            u0, directions = _solve_column_system(self.lattice, [])
            raw = _enumerate_affine(self.lattice.ambient, u0, directions, self.box, ceiling, counter)
            self._cached = sorted(
                (u for u in raw if self.member_test(u)),
                key=lambda u: (sum(abs(x - g) for x, g in zip(u, self.gen)), [-x for x in u]),
            )
        return self._cached


def _column_data(algebra, spec1: LatticeSpec, spec2: LatticeSpec, budget: SearchBudget):
    subs = canonical_subspaces(algebra)
    center = algebra.center()
    cols = []
    for i, gen in enumerate(spec1.generators):
        constraint = _full_subspace(algebra)
        for sub in subs:
            if sub.contains(gen):
                constraint = constraint.intersection(sub)
        lattice = spec2.log_cover_lattice(constraint)
        norm1 = sum(abs(x) for x in gen)
        box = Fraction(budget.bound) * norm1
        col = _Column(i, gen, constraint, lattice, box, spec2.contains)
        col.central = center.contains(gen)
        cols.append(col)
    return cols


def _solve_column_system(lattice: IntLattice, constraints):
    """Integer solutions of linear constraints over a lattice.

    Returns None when infeasible, else (u0, directions): the particular
    ambient solution and the ambient images of a kernel basis.
    """
    basis = lattice.basis_vectors()
    k = len(basis)
    if k == 0:
        if not constraints or all(Fraction(rhs) == 0 for _, rhs in constraints):
            return tuple([Fraction(0)] * lattice.ambient), []
        return None
    rows = []
    rhs = []
    for row, r in constraints:
        rows.append([vdot(row, basis[j]) for j in range(k)])
        rhs.append(Fraction(r))
    if rows:
        den = 1
        for row, r in zip(rows, rhs):
            for x in row:
                den = lcm(den, x.denominator)
            den = lcm(den, r.denominator)
        int_rows = [[int(x * den) for x in row] for row in rows]
        int_rhs = [int(r * den) for r in rhs]
        x0 = solve_integer(int_rows, int_rhs)
        if x0 is None:
            return None
        kern = integer_kernel(int_rows)
    else:
        x0 = [0] * k
        kern = [[int(i == j) for j in range(k)] for i in range(k)]
    u0 = tuple(
        sum(Fraction(x0[j]) * basis[j][m] for j in range(k))
        for m in range(lattice.ambient)
    )
    directions = [
        tuple(
            sum(Fraction(kv[j]) * basis[j][m] for j in range(k))
            for m in range(lattice.ambient)
        )
        for kv in kern
    ]
    return u0, directions


def _enumerate_affine(ambient, u0, directions, box, ceiling, counter):
    """All points u0 + sum z_r directions[r] inside the coordinate box."""
    f = len(directions)
    if f == 0:
        if all(abs(x) <= box for x in u0):
            counter[0] += 1
            if counter[0] > ceiling:
                raise SearchSpaceExceeded("node ceiling exceeded")
            yield tuple(u0)
        return
    gram = [
        [
            sum(directions[r][m] * directions[s][m] for m in range(ambient))
            for s in range(f)
        ]
        for r in range(f)
    ]
    ginv = invert_rational(gram)
    pinv = [
        [sum(ginv[r][s] * directions[s][m] for s in range(f)) for m in range(ambient)]
        for r in range(f)
    ]
    radius = []
    for r in range(f):
        total = sum(abs(pinv[r][m]) * (box + abs(u0[m])) for m in range(ambient))
        radius.append(int(total) + 1)

    def rec(r, partial):
        if r == f:
            if all(abs(x) <= box for x in partial):
                counter[0] += 1
                if counter[0] > ceiling:
                    raise SearchSpaceExceeded("node ceiling exceeded")
                yield tuple(partial)
            return
        for z in range(-radius[r], radius[r] + 1):
            if z == 0:
                nxt = partial
            else:
                nxt = [partial[m] + z * directions[r][m] for m in range(ambient)]
            yield from rec(r + 1, nxt)

    yield from rec(0, list(u0))


def _bracket_coords(spec1: LatticeSpec, i, j):
    """[v_i, v_j] in generator-basis coordinates."""
    b = spec1.algebra.bracket(spec1.generators[i], spec1.generators[j])
    return spec1.generator_coordinates(b)


def _probe_pairs(algebra, spec1, cols):
    """Bilinear pairs whose bracket is a combination of central generators."""
    n = algebra.dim
    central = [c.index for c in cols if c.central]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j or cols[i].subspace.dim == n or cols[j].subspace.dim == n:
                continue
            coords = _bracket_coords(spec1, i, j)
            if all(c == 0 for c in coords):
                continue
            if all(c == 0 or m in central for m, c in enumerate(coords)):
                pairs.append((i, j, coords))
    return pairs


def _central_assignments(cols, spec2, budget, counter):
    """All ways to map the central generators onto the central lattice."""
    central_cols = [c for c in cols if c.central]
    if not central_cols:
        return [{}]
    target = spec2.center_intersection().lattice
    out = []

    def rec(idx, chosen):
        if idx == len(central_cols):
            lat = IntLattice(spec2.algebra.dim, list(chosen.values()))
            if lat == target:
                out.append(dict(chosen))
            return
        col = central_cols[idx]
        cands = col.all_candidates(budget.node_ceiling, counter)
        for u in cands:
            if not target.member(u):
                continue
            chosen[col.index] = u
            rec(idx + 1, chosen)
            del chosen[col.index]

    rec(0, {})
    return out


def _linear_rows(algebra, u_j):
    """Rows of the map u -> [u, u_j] in ambient coordinates."""
    n = algebra.dim
    cols = [algebra.bracket(basis_vec(n, k), u_j) for k in range(n)]
    return [[cols[k][m] for k in range(n)] for m in range(n)]


def bounded_lattice_isomorphism_search(
    algebra: NilLieAlgebra,
    spec1: LatticeSpec,
    spec2: LatticeSpec,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Search for an automorphism with Psi(Gamma1) = Gamma2 inside the box.

    Returns found(matrix) on the first verified hit, or none-within-bound
    with ``exhausted=True`` when the whole constrained space was covered.
    Raises SearchSpaceExceeded when the node ceiling trips first.
    """
    budget = budget or SearchBudget()
    if spec1.algebra is not algebra or spec2.algebra is not algebra:
        raise ValueError("lattices must live in the given algebra")
    n = algebra.dim
    cols = _column_data(algebra, spec1, spec2, budget)
    counter = [0]

    central_maps = _central_assignments(cols, spec2, budget, counter)
    if not central_maps:
        return SearchOutcome(None, True, counter[0], "no central assignment")

    # Global bilinear probes: a pair with no integer solution for any
    # boxed first column kills the whole search.
    pairs = _probe_pairs(algebra, spec1, cols)
    for i, j, coords in pairs:
        first, second = (i, j) if cols[i].subspace.dim <= cols[j].subspace.dim else (j, i)
        killed = True
        for cmap in central_maps:
            rhs_vec = [
                sum(
                    Fraction(coords[m]) * Fraction(cmap[m][a])
                    for m in cmap
                )
                for a in range(n)
            ]
            probe_counter = [0]
            try:
                for u in cols[first].all_candidates(budget.probe_ceiling, probe_counter):
                    # The rows give x -> [x, u]; with u the image of v_i the
                    # bracket [u, x] = rhs flips the sign of the target.
                    rows = _linear_rows(algebra, u)
                    target = [-r for r in rhs_vec] if first == i else rhs_vec
                    system = list(zip(rows, target))
                    if _solve_column_system(cols[second].lattice, system) is not None:
                        killed = False
                        break
            except SearchSpaceExceeded:
                killed = False
            if not killed:
                break
        if killed:
            return SearchOutcome(None, True, counter[0], f"bracket ({i},{j}) infeasible")

    # Depth-first assignment, most constrained subspaces first.
    order = [c.index for c in sorted(cols, key=lambda c: (not c.central, c.subspace.dim, -c.index))]
    vmat = [[spec1.generators[j][i] for j in range(n)] for i in range(n)]
    vinv = invert_rational(vmat)

    def verify(images):
        umat = [[images[j][i] for j in range(n)] for i in range(n)]
        psi = mat_mul(umat, vinv)
        try:
            invert_rational(psi)
        except ValueError:
            return None
        if not algebra.is_automorphism(psi) or not maps_onto(psi, spec1, spec2):
            return None
        return psi

    result: list = []

    def dfs(pos, assigned):
        if result:
            return
        if pos == len(order):
            psi = verify([assigned[i] for i in range(n)])
            if psi is not None:
                result.append(psi)
            return
        idx = order[pos]
        col = cols[idx]
        if idx in assigned:
            dfs(pos + 1, assigned)
            return
        constraints = []
        for j in assigned:
            if j == idx:
                continue
            coords = _bracket_coords(spec1, idx, j)
            if any(c != 0 and m not in assigned for m, c in enumerate(coords)):
                continue
            rhs = [
                sum(Fraction(coords[m]) * Fraction(assigned[m][a]) for m in assigned if coords[m] != 0)
                for a in range(n)
            ]
            rows = _linear_rows(algebra, assigned[j])
            for a in range(n):
                constraints.append((rows[a], rhs[a]))
        need_member = False
        if constraints:
            solved = _solve_column_system(col.lattice, constraints)
            if solved is None:
                return
            u0, directions = solved
            if len(directions) <= 3:
                need_member = True
                cands = sorted(
                    _enumerate_affine(
                        algebra.dim, u0, directions, col.box, budget.node_ceiling, counter
                    ),
                    key=lambda u: (
                        sum(abs(x - g) for x, g in zip(u, col.gen)),
                        [-x for x in u],
                    ),
                )
            else:
                cands = [
                    u
                    for u in col.all_candidates(budget.node_ceiling, counter)
                    if all(vdot(row, u) == rhs for row, rhs in constraints)
                ]
        else:
            cands = col.all_candidates(budget.node_ceiling, counter)
        for u in cands:
            if need_member and not spec2.contains(u):
                continue
            counter[0] += 1
            if counter[0] > budget.node_ceiling:
                raise SearchSpaceExceeded("node ceiling exceeded")
            assigned[idx] = u
            dfs(pos + 1, assigned)
            del assigned[idx]
            if result:
                return

    for cmap in central_maps:
        assigned = dict(cmap)
        dfs(0, assigned)
        if result:
            return SearchOutcome(result[0], False, counter[0], "found")
    return SearchOutcome(None, True, counter[0], "exhausted")
