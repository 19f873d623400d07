from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilspec.cli import run
from nilspec.exactnum import IntLattice, hnf, integer_kernel, integer_solvable, solve_integer
from nilspec.exactnum.matrix import invert_rational, mat_vec
from nilspec.isosearch import (
    PROBE_CEILING,
    SearchBudget,
    SearchSpaceExceeded,
    _bracket_coords,
    _central_assignments,
    _column_data,
    _column_rows,
    _enumerate_affine,
    _image,
    _outside_bracket_span,
    _probe_pairs,
    _solve_column_system,
    bounded_lattice_isomorphism_search,
    canonical_subspaces,
)
from nilspec.lattices import LatticeSpec
from nilspec.liealg import NilLieAlgebra, Subspace
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.vecops import basis_vec, clear_denominators, vadd, vdot

from fraction_references import reference_splits
from test_lattices import BUNDLED_SPECS, perturbed

F = Fraction


def _all_pairs_closure(algebra):
    """canonical_subspaces by the plain double loop over ordered pairs."""
    base = [algebra.derived(k) for k in range(1, algebra.step)]
    base.append(algebra.center())
    base += [algebra.centralizer(algebra.derived(k)) for k in range(1, algebra.step)]
    closure = base + [a.intersection(b) for a in base for b in base]
    out = []
    for sub in closure:
        if 0 < sub.dim < algebra.dim and sub not in out:
            out.append(sub)
    return out


def _filiform_heisenberg_line():
    """f4 + h3 + R: its center and derived algebra meet in a further ideal."""
    one = Fraction(1)
    brackets = {(0, 1): [(2, one)], (0, 2): [(3, one)], (4, 5): [(6, one)]}
    return NilLieAlgebra(8, ["X1", "X2", "X3", "X4", "Y1", "Y2", "Z", "A"], brackets)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS + ("f4+h3+R",))
def test_canonical_subspaces_match_all_ordered_pairs(example_id):
    if example_id in EXAMPLE_IDS:
        algebra = load(example_id).algebra
    else:
        algebra = _filiform_heisenberg_line()
        # The bundled algebras' base ideals are nested; here an intersection
        # (span of X4 and Z) is new.
        assert len(canonical_subspaces(algebra)) == 5
    assert canonical_subspaces(algebra) == _all_pairs_closure(algebra)


def _ordered_pairs_log_cover(spec, subspace):
    """log_cover_lattice with the saturation run over all ordered basis pairs."""
    algebra = spec.algebra
    if not algebra.is_ideal(subspace):
        raise ValueError("subspace is not an ideal")
    inside = [g for g in spec.generators if subspace.contains(g)]
    if not reference_splits(algebra, subspace, spec.generators):
        raise ValueError("generators do not split along the subspace")
    lattice = IntLattice(algebra.dim, inside)
    for _ in range(6):
        basis = [tuple(b) for b in lattice.basis_vectors()]
        extra = []
        for a in basis:
            for b in basis:
                for v in (algebra.cbh(a, b), algebra.bracket(a, b)):
                    if not lattice.member(v):
                        extra.append(v)
        if not extra:
            return lattice
        lattice = IntLattice(algebra.dim, basis + extra)
    raise ValueError("log cover did not stabilize")


def _cover_outcome(cover, spec, subspace):
    try:
        return cover(spec, subspace)
    except ValueError as exc:
        return str(exc)


def _assert_covers_match(spec):
    n, gens = spec.algebra.dim, spec.generators
    # The search's ideals, the generator tails, and two that raise: a line
    # through the first generator (no ideal), and [g, g] plus v_1 + v_2, an
    # ideal (it contains [g, g]) that v_1 and v_2 do not split along.
    derived = spec.algebra.derived(1).basis()
    subspaces = canonical_subspaces(spec.algebra) + [Subspace(n, gens[k:]) for k in range(n)]
    subspaces += [Subspace(n, gens[:1]), Subspace(n, derived + [vadd(gens[0], gens[1])])]
    outcomes = []
    for sub in subspaces:
        got = _cover_outcome(LatticeSpec.log_cover_lattice, spec, sub)
        assert got == _cover_outcome(_ordered_pairs_log_cover, spec, sub)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
def test_log_cover_matches_the_ordered_pair_saturation(root, side):
    outcomes = _assert_covers_match(getattr(load(root), side))
    assert any(isinstance(o, IntLattice) for o in outcomes)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_log_cover_matches_on_perturbed_specs(root, side, data):
    bundled = getattr(load(root), side)
    try:
        spec = LatticeSpec(bundled.algebra, data.draw(perturbed(bundled.generators)))
    except ValueError:
        return
    _assert_covers_match(spec)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_column_data_builds_one_log_cover_per_constraint(example_id, monkeypatch):
    record = load(example_id)
    built = []
    original = LatticeSpec.log_cover_lattice

    def counting(self, subspace):
        built.append(subspace)
        return original(self, subspace)

    monkeypatch.setattr(LatticeSpec, "log_cover_lattice", counting)
    cols = _column_data(record.algebra, record.spec1, record.spec2, SearchBudget(bound=1))
    constraints = [c.subspace for c in cols]
    assert len(built) == len(set(built)) == len(set(constraints))
    assert set(built) == set(constraints)
    for col in cols:
        assert col.lattice == original(record.spec2, col.subspace)
    # Generators sharing a constraint share its lattice.
    assert len(set(constraints)) < len(cols)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_column_data_intersects_each_set_of_containing_subspaces_once(example_id, monkeypatch):
    # Generators contained in the same canonical subspaces share one
    # intersection chain, started from the first of them: a set of k subspaces
    # costs k - 1 intersections, however many generators it holds.
    record = load(example_id)
    subs = canonical_subspaces(record.algebra)
    sets = {tuple(k for k, sub in enumerate(subs) if sub.contains(g)) for g in record.spec1.generators}
    calls = []
    original = Subspace.intersection

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr("nilspec.isosearch.canonical_subspaces", lambda algebra: subs)
    monkeypatch.setattr(Subspace, "intersection", counting)
    cols = _column_data(record.algebra, record.spec1, record.spec2, SearchBudget(bound=1))
    assert len(calls) == sum(len(s) - 1 for s in sets if s) < len(cols)
    for col, gen in zip(cols, record.spec1.generators):
        expected = record.algebra.derived(0)
        for sub in subs:
            if sub.contains(gen):
                expected = original(expected, sub)
        assert col.subspace == expected


def test_canonical_subspaces_dim7():
    record = load("I")
    subs = canonical_subspaces(record.algebra)
    dims = sorted(s.dim for s in subs)
    # derived(1)=3, derived(2)=center=1, centralizer(derived1)=5,
    # centralizer(derived2)=7 is dropped as improper.
    assert 1 in dims and 3 in dims and 5 in dims


def test_search_finds_example_ii_isomorphism():
    record = load("II")
    out = bounded_lattice_isomorphism_search(
        record.algebra, record.spec1, record.spec2, SearchBudget(bound=4)
    )
    assert out.found is not None
    psi = out.found
    # The hit is a verified automorphism carrying lattice 1 onto lattice 2.
    assert record.algebra.is_automorphism(psi)
    for g in record.spec1.generators:
        assert record.spec2.contains(tuple(mat_vec(psi, g)))
    # The bundled witness (X1 -> X1 + Y2/2, Y1 -> Y1 + Z/2) is in range, and
    # the identity-first ordering lands exactly on it.
    assert psi == record.iso_witness


def test_search_exhausts_example_iii():
    record = load("III")
    out = bounded_lattice_isomorphism_search(
        record.algebra, record.spec1, record.spec2, SearchBudget(bound=4)
    )
    assert out.found is None
    assert out.exhausted
    assert "infeasible" in out.note


def test_search_exhausts_example_iv():
    record = load("IV")
    out = bounded_lattice_isomorphism_search(
        record.algebra, record.spec1, record.spec2, SearchBudget(bound=4)
    )
    assert out.found is None
    assert out.exhausted


def test_search_self_pair_finds_identity():
    record = load("I")
    out = bounded_lattice_isomorphism_search(
        record.algebra, record.spec1, record.spec1, SearchBudget(bound=2)
    )
    assert out.found is not None
    n = record.algebra.dim
    assert out.found == [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _reference_probe(algebra, lattice, u, target):
    """The Fraction probe: rows of x -> [x, u], projected onto the lattice basis.

    Returns None when infeasible, else the particular solution and kernel
    basis in ambient coordinates.
    """
    n = algebra.dim
    images = [algebra.bracket(basis_vec(n, k), u) for k in range(n)]
    linear_rows = [[images[k][m] for k in range(n)] for m in range(n)]
    basis = lattice.basis_vectors()
    rows = [[vdot(row, b) for b in basis] for row in linear_rows]
    den = 1
    for row, r in zip(rows, target):
        for x in row + [r]:
            den = lcm(den, x.denominator)
    int_rows = [[int(x * den) for x in row] for row in rows]
    x0 = solve_integer(int_rows, [int(r * den) for r in target])
    if x0 is None:
        return None

    def image(x):
        return tuple(sum(x[j] * basis[j][m] for j in range(len(basis))) for m in range(n))

    return image(x0), [image(kv) for kv in integer_kernel(int_rows)]


@pytest.mark.parametrize("example_id, stride", [("III", 1), ("IV", 1), ("II", 5)])
def test_probe_contraction_matches_fraction_probe(example_id, stride):
    record = load(example_id)
    algebra, spec1, spec2 = record.algebra, record.spec1, record.spec2
    budget = SearchBudget(bound=2)
    cols = _column_data(algebra, spec1, spec2, budget)
    brackets = _bracket_coords(spec1)
    central_maps = _central_assignments(cols, spec2, budget, [0])
    pairs = _probe_pairs(algebra, brackets, cols)
    assert pairs and central_maps
    # Pairs (i, j) and (j, i), and the central maps, share a probe column;
    # every candidate is checked once, the targets taking turns.
    targets = {}
    for i, j, coords in pairs:
        first, second = (i, j) if cols[i].subspace.dim <= cols[j].subspace.dim else (j, i)
        for cmap in central_maps:
            rhs, rhs_den = _image(coords, cmap, cols)
            targets.setdefault((first, second), []).append((rhs, rhs_den))
    checked = feasible = 0
    for (first, second), column_targets in targets.items():
        den, second_den = cols[first].den, cols[second].den
        candidates = cols[first].all_candidates(PROBE_CEILING, [0])
        for t, u in enumerate(candidates[::stride]):
            rhs, rhs_den = column_targets[t % len(column_targets)]
            constraints = [((u, den), (rhs, rhs_den))]
            fast = _solve_column_system(cols[second], constraints)
            u_frac = tuple(F(x, den) for x in u)
            target = [F(r, rhs_den) for r in rhs]
            slow = _reference_probe(algebra, cols[second].lattice, u_frac, target)
            assert (fast is None) == (slow is None)
            # The probe's Hermite span test gives the same verdict.
            assert integer_solvable(*_column_rows(cols[second], constraints)) == (slow is not None)
            if fast is not None:
                u0, directions = fast
                assert tuple(F(x, second_den) for x in u0) == slow[0]
                assert [tuple(F(x, second_den) for x in d) for d in directions] == slow[1]
                feasible += 1
            checked += 1
    assert checked > 0
    if example_id == "II":
        assert 0 < feasible < checked


def test_candidate_filter_matches_fraction_bracket():
    record = load("I")
    algebra = record.algebra
    cols = _column_data(algebra, record.spec1, record.spec1, SearchBudget(bound=1))
    col, other = cols[2], cols[3]
    candidates = col.all_candidates(8000, [0])[:40]
    outcomes = set()
    for uj in other.all_candidates(8000, [0])[:5]:
        uj_frac = tuple(F(x, other.den) for x in uj)
        for source in candidates[:3]:
            rhs = algebra.bracket(tuple(F(x, col.den) for x in source), uj_frac)
            constraint = ((uj, other.den), clear_denominators(rhs))
            for u in candidates:
                expected = algebra.bracket(tuple(F(x, col.den) for x in u), uj_frac) == rhs
                assert col.satisfies(u, [constraint]) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


@st.composite
def affine_boxes(draw):
    """u0, up to three independent integer directions in Z^4, and a box."""
    n = draw(st.integers(1, 4))
    f = draw(st.integers(0, min(3, n)))
    entry = st.integers(-3, 3)
    directions = [[draw(entry) for _ in range(n)] for _ in range(f)]
    if draw(st.booleans()):
        # Already a Hermite basis: the test then compares the order too.
        directions = hnf(directions)
    if directions:
        gram = [[sum(a * b for a, b in zip(d, e)) for e in directions] for d in directions]
        try:
            invert_rational(gram)
        except ValueError:
            directions = []
    u0 = [draw(st.integers(-4, 4)) for _ in range(n)]
    box = F(draw(st.integers(0, 12)), draw(st.integers(1, 3)))
    return u0, directions, box


@settings(max_examples=150, deadline=None)
@given(case=affine_boxes())
@example(case=([4, 0], [[0, 1]], F(3)))  # a coordinate no direction moves is out of the box
def test_pruned_enumeration_matches_the_full_z_box(case):
    # Reference: every z in the Gram-inverse radius box, z_0 outermost, kept
    # when the point lies in the box, which is the unpruned enumeration.
    u0, directions, box = case
    f, n = len(directions), len(u0)
    radius = []
    if f:
        gram = [[sum(a * b for a, b in zip(d, e)) for e in directions] for d in directions]
        ginv = invert_rational(gram)
        for r in range(f):
            pinv = [sum(ginv[r][s] * directions[s][m] for s in range(f)) for m in range(n)]
            radius.append(int(sum(abs(p) * (box + abs(u0[m])) for m, p in enumerate(pinv))) + 1)
    expected = []
    for z in product(*(range(-b, b + 1) for b in radius)):
        u = tuple(u0[m] + sum(z[r] * directions[r][m] for r in range(f)) for m in range(n))
        if all(abs(x) <= box for x in u):
            expected.append(u)
    # The enumerator takes echelon directions and an int box: the Hermite
    # form spans the same lattice, so the points are the same, in the same
    # order when the drawn directions are that form already.
    echelon = hnf(directions)
    counter = [0]
    got = list(_enumerate_affine(u0, echelon, int(box), 10**6, counter))
    assert sorted(got) == sorted(expected)
    if echelon == directions:
        assert got == expected
    assert counter == [len(expected)]


@pytest.mark.parametrize(
    "directions",
    [
        [[0, 0, 0]],  # a zero direction
        [[1, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, 0, 0]],  # pivots out of order
        [[1, 0, 0], [2, 1, 0]],  # two pivots in one column
    ],
)
def test_enumeration_refuses_directions_that_are_not_echelon(directions):
    with pytest.raises(ValueError, match="pivots"):
        list(_enumerate_affine([0, 0, 0], directions, 2, 10**6, [0]))


def test_enumeration_refuses_a_box_that_is_not_an_int():
    with pytest.raises(ValueError, match="box"):
        list(_enumerate_affine([0, 0], [[1, 0]], F(5, 2), 10**6, [0]))


# -- the span test and lazy membership ---------------------------------------


def _eager_members(col, ceiling, counter):
    """The eager candidate list: every boxed point filtered by Malcev
    membership, then sorted.  The points are listed first, so a column over
    the ceiling raises before any membership test."""
    origin = (0,) * col.lattice.ambient
    raw = list(_enumerate_affine(origin, col.basis, col.box, ceiling, counter))
    return sorted((u for u in raw if col.spec2.contains_scaled(u, col.den)), key=col.sort_key)


@lru_cache(maxsize=None)
def _reference_members(col):
    return _eager_members(col, PROBE_CEILING, [0])


def _reference_probe_kills(first, second, target):
    """The per-candidate probe loop with no span test in front: True when no
    boxed member u of the first column makes [x, u] = target solvable in the
    second column's lattice."""
    den = first.den
    for u in _reference_members(first):
        if integer_solvable(*_column_rows(second, [((u, den), target)])):
            return False
    return True


@lru_cache(maxsize=None)
def _probe_cases(example_id, bound):
    """(first, second, target) for every probe pair and central map, as the search builds them."""
    record = load(example_id)
    budget = SearchBudget(bound=bound)
    cols = _column_data(record.algebra, record.spec1, record.spec2, budget)
    brackets = _bracket_coords(record.spec1)
    central_maps = _central_assignments(cols, record.spec2, budget, [0])
    cases = []
    for i, j, coords in _probe_pairs(record.algebra, brackets, cols):
        first, second = (i, j) if cols[i].subspace.dim <= cols[j].subspace.dim else (j, i)
        for cmap in central_maps:
            rhs, rhs_den = _image(coords, cmap, cols)
            target = ([-r for r in rhs] if first == i else rhs, rhs_den)
            cases.append((cols[first], cols[second], target))
    return cases


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_span_test_never_kills_what_the_probe_loop_keeps(example_id, bound):
    cases = _probe_cases(example_id, bound)
    assert cases
    for first, second, target in cases:
        # Outside the span no candidate solves: a solving candidate is inside.
        kills = _reference_probe_kills(first, second, target)
        assert kills or not _outside_bracket_span(first, second, target)


def test_span_test_kills_iii_and_iv_and_keeps_ii():
    # III and IV are refuted with no candidate listed; II's targets are inside
    # the span, where the per-candidate loop finds its solving candidates.
    def outside(example_id):
        return [_outside_bracket_span(*case) for case in _probe_cases(example_id, 2)]

    assert any(outside("III")) and any(outside("IV"))
    assert not any(outside("II"))


@st.composite
def column_targets(draw):
    """A bundled probe column pair at bound 1 and an integer target: a small
    combination of the brackets [c_j, b_i], sometimes moved off it."""
    example_id = draw(st.sampled_from(EXAMPLE_IDS))
    first, second, _ = draw(st.sampled_from(_probe_cases(example_id, 1)))
    algebra = first.algebra
    total = [F(0)] * algebra.dim
    for b in first.basis:
        u = tuple(F(x, first.den) for x in b)
        for c in second.basis:
            y = draw(st.integers(-2, 2))
            if y:
                bracket = algebra.bracket(tuple(F(x, second.den) for x in c), u)
                total = [t + y * v for t, v in zip(total, bracket)]
    if draw(st.booleans()):
        shift = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
        total = [t + draw(shift) for t in total]
    return first, second, clear_denominators(total)


@settings(max_examples=40, deadline=None)
@given(case=column_targets())
def test_span_test_on_random_targets(case):
    first, second, target = case
    assert _reference_probe_kills(first, second, target) or not _outside_bracket_span(
        first, second, target
    )


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_lazy_membership_takes_the_eager_candidates(example_id, bound, monkeypatch):
    record = load(example_id)
    cols = _column_data(record.algebra, record.spec1, record.spec2, SearchBudget(bound=bound))
    tests = [0]
    original = LatticeSpec.contains_scaled

    def counting(self, vnum, vden):
        tests[0] += 1
        return original(self, vnum, vden)

    monkeypatch.setattr(LatticeSpec, "contains_scaled", counting)
    for col in cols:
        counter, eager_counter = [0], [0]
        try:
            eager = _eager_members(col, PROBE_CEILING, eager_counter)
        except SearchSpaceExceeded:
            with pytest.raises(SearchSpaceExceeded):
                col.all_candidates(PROBE_CEILING, counter)
            continue
        tests[0] = 0
        candidates = col.all_candidates(PROBE_CEILING, counter)
        # Listing tests no membership, and costs the counter what it did.
        assert tests[0] == 0
        assert counter == eager_counter
        # Each point is tested once: a second pass reads the memo.
        for _ in range(2):
            assert [u for u in candidates if col.is_member(u)] == eager
            assert tests[0] == len(candidates)


def test_search_iso_ii_tests_membership_only_on_taken_candidates(monkeypatch, capsys):
    load("II")
    calls = [0]
    original = LatticeSpec.contains_scaled

    def counting(self, vnum, vden):
        calls[0] += 1
        return original(self, vnum, vden)

    monkeypatch.setattr(LatticeSpec, "contains_scaled", counting)
    assert run(["--json", "search-iso", "II", "--bound", "2"]) == 0
    assert '"note": "found"' in capsys.readouterr().out
    # Filtering both 1035-point columns up front would test every point.
    assert calls[0] <= 100
