"""Bounded search for lattice-carrying Lie group isomorphisms.

Searches for an automorphism of the ambient algebra mapping one lattice
onto another, with every generator image drawn from a bounded box.  The
search space is organized column by column (images of the first lattice's
generators); canonically defined ideals restrict each column, accumulated
bracket relations become exact integer linear systems, and bilinear
relations between two undetermined columns are probed for global
infeasibility first, which is what makes exhaustion cheap when no
isomorphism exists.  Both build their systems with one row contraction
(`_column_rows`).  The probe only asks whether a system has an integer
solution, which a Hermite-form span test decides (`integer_solvable`); the
depth-first search needs a solution and the kernel (`_solve_column_system`):
the solution comes from the Smith form, the kernel from a Hermite form.

Before it lists a column, the probe asks whether its target lies in the
Z-span of the brackets of the two column bases (`_outside_bracket_span`):
every bracket [x, u] of column points lies in that span, so a target outside
it kills the pair with no candidate listed.  Each column's boxed points are
enumerated and sorted once; Malcev membership in the second lattice is
tested, once per point, only for a candidate the search takes.  Columns
are enumerated along echelon integer directions, their lattice's Hermite
basis or its images of Hermite kernel rows (`_enumerate_affine`).

A negative outcome means precisely: no automorphism maps the first lattice
onto the second while sending each generator v_i to a point of the log-cover
lattice inside the L-infinity box of radius bound * |v_i|_1.  It is evidence
bounded by that box, never a nonisomorphism proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm
from typing import NamedTuple

from .exactnum import IntLattice, integer_kernel, integer_solvable, solve_integer
from .exactnum.matrix import invert_rational, mat_mul
from .lattices import LatticeSpec, maps_onto
from .liealg import NilLieAlgebra
from .vecops import clear_denominators


class SearchSpaceExceeded(RuntimeError):
    pass


PROBE_CEILING = 60_000  # enumeration ceiling of one bilinear probe column


class SearchBudget(NamedTuple):
    bound: int = 4
    node_ceiling: int = 200_000


class SearchOutcome(NamedTuple):
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
    base = list(dict.fromkeys(base))
    # Intersection is symmetric and a cap a = a: each unordered pair once, and
    # a nested pair (the bundled ideals mostly are) needs no elimination.
    closure = list(base)
    for i, a in enumerate(base):
        for b in base[i + 1 :]:
            nested = a if b.contains_subspace(a) else b if a.contains_subspace(b) else None
            closure.append(nested or a.intersection(b))
    out = []
    for sub in closure:
        if 0 < sub.dim < algebra.dim and sub not in out:
            out.append(sub)
    return out


class _Column:
    """One generator's image: a lattice, a box and the probe tensor, in integers.

    Candidates are integer vectors over ``den``, the column lattice's
    denominator, and ``basis`` its Hermite basis; ``box`` is the L-infinity
    radius bound * |gen|_1 in those units, rounded down.  The probe tensor
    holds [b_j, e_m]_a for the lattice basis b_j as integers over
    ``tensor_den``: entry m lists the nonzero (a, j, c).
    """

    def __init__(self, index, gen, subspace, lattice, bound, spec2):
        self.index = index
        self.subspace = subspace
        self.lattice = lattice
        self.den = lattice.den
        self.basis = lattice.rows
        self.box = floor(bound * sum(abs(x) for x in gen) * self.den)
        self.spec2 = spec2
        self.central = False
        self._cached = None
        self._member = {}
        gnum, gden = clear_denominators(gen)
        self._gen_den = gden
        self._gen_scaled = [g * self.den for g in gnum]
        self.algebra = spec2.algebra
        self.tensor = [[] for _ in range(lattice.ambient)]
        for k, terms in enumerate(self.algebra.ad_lists()):
            for m, a, c in terms:
                for j, b in enumerate(self.basis):
                    if b[k]:
                        self.tensor[m].append((a, j, b[k] * c))
        self.tensor_den = self.algebra.structure_tensor()[1] * self.den

    def sort_key(self, u):
        """Nearest to the generator itself first, then by descending coordinates."""
        g = self._gen_den
        return (sum(abs(x * g - t) for x, t in zip(u, self._gen_scaled)), [-x for x in u])

    def is_member(self, u):
        """Malcev membership of u / den in the second lattice, tested once per point."""
        hit = self._member.get(u)
        if hit is None:
            hit = self._member[u] = self.spec2.contains_scaled(u, self.den)
        return hit

    def satisfies(self, u, constraints):
        """Whether [u, u_j] = rhs holds for every constraint of _solve_column_system."""
        for (uj, dj), (rhs, dr) in constraints:
            scale = self.tensor_den * dj
            got = self.algebra.bracket_int(u, uj)
            if any(x * dr != r * scale for x, r in zip(got, rhs)):
                return False
        return True

    def all_candidates(self, ceiling, counter):
        """Boxed points of the column lattice, enumerated and sorted once, then reused.

        The first caller's counter pays for the enumeration.  Membership is
        left to the caller, which asks `is_member` of the candidates it takes.
        """
        if self._cached is None:
            origin = (0,) * self.lattice.ambient
            raw = _enumerate_affine(origin, self.basis, self.box, ceiling, counter)
            self._cached = sorted(raw, key=self.sort_key)
        return self._cached


def _column_data(algebra, spec1: LatticeSpec, spec2: LatticeSpec, budget: SearchBudget):
    subs = canonical_subspaces(algebra)
    center = algebra.center()
    # Keyed by the canonical subspaces containing a generator: each distinct
    # set is intersected once and its log cover built once.
    covers = {}
    cols = []
    for i, gen in enumerate(spec1.generators):
        key = tuple(k for k, sub in enumerate(subs) if sub.contains(gen))
        if key not in covers:
            constraint = subs[key[0]] if key else algebra.derived(0)
            for k in key[1:]:
                constraint = constraint.intersection(subs[k])
            covers[key] = constraint, spec2.log_cover_lattice(constraint)
        constraint, lattice = covers[key]
        col = _Column(i, gen, constraint, lattice, budget.bound, spec2)
        col.central = center.contains(gen)
        cols.append(col)
    return cols


def _column_rows(col: _Column, constraints):
    """The system [x, u_j] = rhs_j in the column lattice's coordinates, on ints.

    Each constraint is ((u_j, u_den), (rhs, rhs_den)) of integer vectors over
    their denominators.  The rows are one contraction of the column's probe
    tensor with u_j; every row and target is scaled to one common
    denominator, which leaves the integer solutions unchanged.  Returns
    (rows, targets): one row per constraint and ambient coordinate, one
    column per lattice basis vector.
    """
    k = len(col.basis)
    n = col.lattice.ambient
    scale = lcm(
        *(col.tensor_den * du for (_u, du), _rhs in constraints),
        *(dr for _u, (_rhs, dr) in constraints),
    )
    int_rows = []
    int_rhs = []
    for (u, du), (rhs, dr) in constraints:
        f = scale // (col.tensor_den * du)
        rows = [[0] * k for _ in range(n)]
        for m, x in enumerate(u):
            if x:
                fx = f * x
                for a, j, c in col.tensor[m]:
                    rows[a][j] += c * fx
        int_rows.extend(rows)
        g = scale // dr
        int_rhs.extend(g * r for r in rhs)
    return int_rows, int_rhs


def _outside_bracket_span(first: _Column, second: _Column, target) -> bool:
    """Whether target lies outside the Z-span of the brackets [c_j, b_i].

    b_i and c_j run over the lattice bases of the first and second column.
    Any [x, u] with x in the second lattice and u in the first is an integer
    combination of them, so a target outside the span has no solution for
    any candidate u.  The converse does not hold: inside the span, the probe
    still tries candidates one by one.  target is (ints, den) as in
    `_column_rows`, whose blocks x -> [x, b_i] share one scale and target.
    """
    blocks = [_column_rows(second, [((b, first.den), target)]) for b in first.basis]
    rows = [[x for block, _ in blocks for x in block[a]] for a in range(len(target[0]))]
    return not integer_solvable(rows, blocks[0][1])


def _solve_column_system(col: _Column, constraints):
    """Integer solutions x of [x, u_j] = rhs_j with x in the column lattice.

    The depth-first step's system, from `_column_rows`: it needs a particular
    solution (`solve_integer`) and a kernel basis (`integer_kernel`), while
    the probe, which needs feasibility alone, asks `integer_solvable`.
    Returns None when infeasible, else (u0, directions): the particular
    solution and the images of the Hermite kernel basis, integer vectors over
    col.den, echelon as `_enumerate_affine` takes them.
    """
    basis = col.basis
    n = col.lattice.ambient
    int_rows, int_rhs = _column_rows(col, constraints)
    x0 = solve_integer(int_rows, int_rhs)
    if x0 is None:
        return None

    def image(x):
        return tuple(sum(c * b[m] for c, b in zip(x, basis)) for m in range(n))

    return image(x0), [image(kv) for kv in integer_kernel(int_rows)]


def _enumerate_affine(u0, directions, box, ceiling, counter):
    """All points u0 + sum z_r directions[r] with every |coordinate| <= box.

    Everything is on ints, and the directions are echelon, as a lattice's
    Hermite basis and its images of Hermite kernel rows are: each is nonzero
    and its pivot (first nonzero coordinate) lies strictly right of the
    previous one's.  Anything else raises ValueError.  Each level runs z,
    ascending, over the range that keeps in the box the coordinates no later
    direction moves, its own pivot among them; the coordinates no direction
    moves are checked once, first.
    """
    if type(box) is not int:
        raise ValueError("the box must be an int")
    pivot = -1
    for d in directions:
        p = next((m for m, x in enumerate(d) if x), None)
        if p is None or p <= pivot:
            raise ValueError("directions must be nonzero with strictly increasing pivots")
        pivot = p
    f = len(directions)
    last = {m: r for r, d in enumerate(directions) for m, x in enumerate(d) if x}
    settled = [[m for m, r in last.items() if r == level] for level in range(f)]
    if any(abs(x) > box for m, x in enumerate(u0) if m not in last):
        return

    def rec(r, partial):
        if r == f:
            counter[0] += 1
            if counter[0] > ceiling:
                raise SearchSpaceExceeded("node ceiling exceeded")
            yield tuple(partial)
            return
        d = directions[r]
        # The z with |p + z dm| <= box, after flipping signs to dm > 0.
        spans = [(partial[m], d[m]) if d[m] > 0 else (-partial[m], -d[m]) for m in settled[r]]
        low = max(-((box + p) // dm) for p, dm in spans)
        high = min((box - p) // dm for p, dm in spans)
        for z in range(low, high + 1):
            if z == 0:
                nxt = partial
            else:
                nxt = [p + z * x for p, x in zip(partial, d)]
            yield from rec(r + 1, nxt)

    yield from rec(0, list(u0))


def _image(coords, assigned, cols):
    """sum_m coords_m u_m for scaled coords and assigned images: (ints, den)."""
    nums, cden = coords
    terms = [(c, assigned[m], cols[m].den) for m, c in enumerate(nums) if c]
    den = lcm(*(d for _, _, d in terms))
    out = [0] * len(nums)
    for c, u, d in terms:
        f = c * (den // d)
        for a, x in enumerate(u):
            out[a] += f * x
    return out, cden * den


def _bracket_coords(spec1: LatticeSpec):
    """[v_i, v_j] in generator-basis coordinates, as (ints, den), for i != j."""
    n = spec1.algebra.dim
    return {
        (i, j): clear_denominators(spec1.gen_algebra.basis_bracket(i, j))
        for i in range(n)
        for j in range(n)
        if i != j
    }


def _probe_pairs(algebra, brackets, cols):
    """Bilinear pairs whose bracket is a combination of central generators."""
    n = algebra.dim
    central = [c.index for c in cols if c.central]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j or cols[i].subspace.dim == n or cols[j].subspace.dim == n:
                continue
            coords = brackets[(i, j)]
            if not any(coords[0]):
                continue
            if all(c == 0 or m in central for m, c in enumerate(coords[0])):
                pairs.append((i, j, coords))
    return pairs


def _central_assignments(cols, spec2, budget, counter):
    """All ways to map the central generators onto the central lattice."""
    central_cols = [c for c in cols if c.central]
    target = spec2.center_intersection()
    out = []

    def rec(idx, chosen):
        if idx == len(central_cols):
            images = [[Fraction(x, cols[i].den) for x in u] for i, u in chosen.items()]
            if IntLattice(spec2.algebra.dim, images) == target:
                out.append(dict(chosen))
            return
        col = central_cols[idx]
        cands = col.all_candidates(budget.node_ceiling, counter)
        for u in cands:
            if not target.member_scaled(u, col.den) or not col.is_member(u):
                continue
            chosen[col.index] = u
            rec(idx + 1, chosen)
            del chosen[col.index]

    rec(0, {})
    return out


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
    brackets = _bracket_coords(spec1)
    counter = [0]

    central_maps = _central_assignments(cols, spec2, budget, counter)
    if not central_maps:
        return SearchOutcome(None, True, counter[0], "no central assignment")

    # Global bilinear probes: a pair with no integer solution for any
    # boxed first column kills the whole search.  A target outside the span
    # of the column brackets needs no candidate listed.
    pairs = _probe_pairs(algebra, brackets, cols)
    for i, j, coords in pairs:
        first, second = (i, j) if cols[i].subspace.dim <= cols[j].subspace.dim else (j, i)
        col, other = cols[first], cols[second]
        killed = True
        for cmap in central_maps:
            rhs, rhs_den = _image(coords, cmap, cols)
            # The system is x -> [x, u]; with u the image of v_i the bracket
            # [u, x] = rhs flips the sign of the target.
            target = ([-r for r in rhs] if first == i else rhs, rhs_den)
            if _outside_bracket_span(col, other, target):
                continue
            probe_counter = [0]
            try:
                for u in col.all_candidates(PROBE_CEILING, probe_counter):
                    rows = _column_rows(other, [((u, col.den), target)])
                    if integer_solvable(*rows) and col.is_member(u):
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
        umat = [[Fraction(images[j][i], cols[j].den) for j in range(n)] for i in range(n)]
        psi = mat_mul(umat, vinv)
        if not maps_onto(psi, spec1, spec2) or not algebra.is_automorphism(psi):
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
            coords = brackets[(idx, j)]
            if any(c != 0 and m not in assigned for m, c in enumerate(coords[0])):
                continue
            constraints.append(((assigned[j], cols[j].den), _image(coords, assigned, cols)))
        if constraints:
            solved = _solve_column_system(col, constraints)
            if solved is None:
                return
            u0, directions = solved
            if len(directions) <= 3:
                cands = sorted(
                    _enumerate_affine(u0, directions, col.box, budget.node_ceiling, counter),
                    key=col.sort_key,
                )
            else:
                cands = [
                    u
                    for u in col.all_candidates(budget.node_ceiling, counter)
                    if col.satisfies(u, constraints)
                ]
        else:
            cands = col.all_candidates(budget.node_ceiling, counter)
        for u in cands:
            if not col.is_member(u):
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
