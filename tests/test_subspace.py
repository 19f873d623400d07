"""Differential tests: Subspace's echelon-form routines against the code they replaced.

``Subspace.intersection`` (one reduced form of [A | A; B | 0]), the
quotient projection (``Subspace.projection`` and ``reduce``) and
``LatticeSpec.log_cover_lattice``'s split check (a dimension count) must
agree with the references in ``fraction_references``: on random subspaces,
among them zero, full, equal and disjoint ones, and on the ideals of the
bundled, quotient and generator-basis algebras.
"""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilspec.exactnum import IntLattice
from nilspec.exactnum.matrix import mat_vec
from nilspec.lattices import LatticeSpec
from nilspec.liealg import NilLieAlgebra, Subspace
from nilspec.oneform import character_dual_data
from nilspec.registry import load
from nilspec.vecops import basis_vec

from fraction_references import reference_intersection, reference_quotient, reference_splits
from json_writers import algebra_json
from test_lattices import BUNDLED_SPECS
from test_structure_kernel import ALGEBRA_NAMES, _algebras

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _vectors(n, count):
    return st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=0, max_size=count)


@st.composite
def subspaces(draw, n):
    kind = draw(st.sampled_from(["zero", "full", "random"]))
    if kind == "zero":
        return Subspace(n, [])
    if kind == "full":
        return Subspace(n, [basis_vec(n, i) for i in range(n)])
    return Subspace(n, draw(_vectors(n, n + 1)))


def _combinations_of(draw, n, vectors):
    """A few random combinations of vectors: a spanning set of a subspace of their span."""
    out = []
    for _ in range(draw(st.integers(0, len(vectors) + 1))):
        coeffs = draw(st.lists(RATIONALS, min_size=len(vectors), max_size=len(vectors)))
        out.append(tuple(sum((c * v[k] for c, v in zip(coeffs, vectors)), Fraction(0)) for k in range(n)))
    return out


@st.composite
def subspace_pairs(draw):
    """(A, B) with B random, zero, full, equal to A, inside A, or meeting A in zero."""
    n = draw(st.integers(1, 6))
    a = draw(subspaces(n))
    kind = draw(st.sampled_from(["random", "equal", "inside", "disjoint"]))
    if kind == "random":
        return a, draw(subspaces(n))
    if kind == "equal":
        # The same subspace from a recombined spanning set.
        rows = list(a.rows)
        return a, Subspace(n, rows[::-1] + _combinations_of(draw, n, rows))
    if kind == "inside":
        return a, Subspace(n, _combinations_of(draw, n, list(a.rows)))
    # The unit vectors off A's pivots span a complement of A.
    off = [basis_vec(n, m) for m in range(n) if m not in a.pivots]
    return a, Subspace(n, _combinations_of(draw, n, off))


@settings(max_examples=300, deadline=None)
@given(pair=subspace_pairs())
def test_intersection_matches_the_kernel_recombination(pair):
    a, b = pair
    both = a.intersection(b)
    assert both == reference_intersection(a, b)
    assert both == b.intersection(a)
    assert a.contains_subspace(both) and b.contains_subspace(both)


def test_intersection_of_known_subspaces():
    e = [basis_vec(4, i) for i in range(4)]
    plane = Subspace(4, [e[0], e[1]])
    assert plane.intersection(Subspace(4, [e[2], e[3]])) == Subspace(4, [])
    diagonal = Subspace(4, [tuple(x + y for x, y in zip(e[0], e[2])), e[1]])
    assert plane.intersection(diagonal) == Subspace(4, [e[1]])
    with pytest.raises(ValueError, match="ambient"):
        plane.intersection(Subspace(3, []))


def _abelian(n):
    return NilLieAlgebra(n, [f"e{i}" for i in range(n)], {})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduce_and_projection_match_the_quotient_reference(data):
    n = data.draw(st.integers(1, 6))
    sub = data.draw(subspaces(n))
    v = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    r = sub.reduce(v)
    assert all(r[p] == 0 for p in sub.pivots)
    assert sub.contains([x - y for x, y in zip(v, r)])
    assert sub.contains(v) == (not any(r))
    # Every subspace is an ideal of the abelian algebra.
    quot, proj = _abelian(n).quotient(sub)
    ref_quot, ref_proj = reference_quotient(_abelian(n), sub)
    assert proj == sub.projection() == ref_proj
    assert algebra_json(quot) == algebra_json(ref_quot)


def _ideals(algebra):
    """Zero, g, the lower central series, the center and the series' centralizers."""
    n = algebra.dim
    out = [Subspace(n, []), algebra.derived(0), algebra.center()]
    out += [algebra.derived(k) for k in range(1, algebra.step)]
    out += [algebra.centralizer(algebra.derived(k)) for k in range(1, algebra.step)]
    return out


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_ideals_of_the_bundled_algebras_match_the_references(name):
    algebra = _algebras()[name]
    ideals = _ideals(algebra)
    for a, b in combinations(ideals, 2):
        assert a.intersection(b) == reference_intersection(a, b)
    for ideal in ideals:
        quot, proj = algebra.quotient(ideal)
        ref_quot, ref_proj = reference_quotient(algebra, ideal)
        assert proj == ref_proj
        assert algebra_json(quot) == algebra_json(ref_quot)


def _split_outcome(algebra, sub, generators):
    spec = SimpleNamespace(algebra=algebra, generators=generators)
    try:
        LatticeSpec.log_cover_lattice(spec, sub)
    except ValueError as exc:
        assert str(exc) == "generators do not split along the subspace"
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_check_matches_the_quotient_reference(data):
    # On an abelian algebra every subspace is an ideal and the log cover is the
    # Z-span of the inside generators, so only the split check can raise.
    n = data.draw(st.integers(1, 5))
    sub = data.draw(subspaces(n))
    gens = [tuple(g) for g in data.draw(_vectors(n, n + 1))]
    gens += _combinations_of(data.draw, n, list(sub.rows))
    algebra = _abelian(n)
    assert _split_outcome(algebra, sub, gens) == reference_splits(algebra, sub, gens)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
def test_split_check_on_the_bundled_ideals(root, side):
    spec = getattr(load(root), side)
    for ideal in _ideals(spec.algebra):
        assert _split_outcome(spec.algebra, ideal, spec.generators) == reference_splits(
            spec.algebra, ideal, spec.generators
        )


def test_log_cover_and_character_data_build_no_quotient_algebra(monkeypatch):
    # Loading builds every spec, which calls in_basis, before the patch.
    record = load("III")
    spec, algebra = record.spec1, record.algebra
    full = IntLattice(algebra.dim, spec.generators)
    expected_cover = spec.log_cover_lattice(algebra.derived(1))
    gram, lift = character_dual_data(algebra, record.metric, full)

    def dual_lattice():
        # The characters of the lattice: the dual of its projected logs.
        proj = algebra.derived(1).projection()
        return IntLattice(len(proj), [mat_vec(proj, b) for b in full.basis_vectors()]).dual()

    dual = dual_lattice()

    def refuse(*args, **kwargs):
        raise AssertionError("in_basis called")

    monkeypatch.setattr(NilLieAlgebra, "in_basis", refuse)
    assert spec.log_cover_lattice(algebra.derived(1)) == expected_cover
    got_gram, got_lift = character_dual_data(algebra, record.metric, full)
    assert (dual_lattice(), got_gram) == (dual, gram)
    coeffs = [1] * dual.rank
    assert got_lift(coeffs) == lift(coeffs)
