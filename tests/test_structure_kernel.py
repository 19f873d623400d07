"""Differential tests: NilLieAlgebra's integer kernel against the Fraction references.

The generator-basis table a ``LatticeSpec`` reads off ``gen_algebra``, its
``_product_int``, ``NilLieAlgebra.cbh`` and ``NilLieAlgebra.is_automorphism``
must agree with the Fraction code they replaced (``fraction_references``), on
the ten bundled specs, their projected quotient specs, and randomly
perturbed generator sets.  ``bracket``, ``basis_bracket`` and ``validate``'s
Jacobi check must agree with the Fraction bracket loop, and ``algebra_json`` with
the structure constants the algebra was built from, on the bundled,
quotient and generator-basis algebras and on random algebras with
fractional constants, Jacobi identity or not.
"""

from fractions import Fraction
from functools import lru_cache

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilspec.exactnum import rat_from_str
from nilspec.exactnum.matrix import identity, invert_rational, mat_mul, mat_vec
from nilspec.lattices import LatticeSpec
from nilspec.liealg import NilLieAlgebra
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.vecops import basis_vec

from fraction_references import (
    reference_ad_matrix,
    reference_bracket,
    reference_cbh,
    reference_is_automorphism,
    reference_jacobi_violations,
    reference_product_int,
    reference_structure_table,
    reference_table,
)
from test_lattices import BUNDLED_SPECS, _projections, perturbed

F = Fraction
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _spec(root, side):
    return getattr(load(root), side)


def _assert_tables_match(spec):
    n = spec.algebra.dim
    table, den = reference_structure_table(spec.algebra, spec.generators)
    assert spec.gen_algebra.structure_tensor() == (tuple(table), den)
    for i in range(n):
        for j in range(n):
            assert spec._product_int(i, j) == reference_product_int(table, den, n, i, j)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
def test_bundled_and_quotient_tables_match_the_reference(root, side):
    spec = _spec(root, side)
    _assert_tables_match(spec)
    for qalg, proj in _projections(spec.algebra):
        qspec, _ = spec.quotient(qalg, proj)
        _assert_tables_match(qspec)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_perturbed_tables_match_the_reference(root, side, data):
    bundled = _spec(root, side)
    algebra = bundled.algebra
    gens = data.draw(perturbed(bundled.generators))
    # The basis change itself, also for bases that are not adapted.
    n = algebra.dim
    to_gen = invert_rational([[g[i] for g in gens] for i in range(n)])
    rebased = algebra.in_basis(gens, lambda v: mat_vec(to_gen, v), [f"v{i}" for i in range(n)])
    table, den = reference_structure_table(algebra, gens)
    assert rebased.structure_tensor() == (tuple(table), den)
    try:
        spec = LatticeSpec(algebra, gens)
    except ValueError:
        return
    _assert_tables_match(spec)
    for qalg, proj in _projections(algebra):
        try:
            qspec, _ = spec.quotient(qalg, proj)
        except ValueError:
            continue
        _assert_tables_match(qspec)


@lru_cache(maxsize=None)
def _algebras():
    """Ambient, quotient and generator-basis algebras of the bundled pairs, by name."""
    out = {}
    for root in EXAMPLE_IDS:
        record = load(root)
        out[root] = record.algebra
        out[f"{root}/quotient"] = record.quotient_data()[0]
        for side in ("spec1", "spec2"):
            out[f"{root}/{side}"] = getattr(record, side).gen_algebra
    return out


ALGEBRA_NAMES = [
    name
    for root in EXAMPLE_IDS
    for name in (root, f"{root}/quotient", f"{root}/spec1", f"{root}/spec2")
]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_integer_bracket_and_group_law_match_the_fraction_ones(name, data):
    algebra = _algebras()[name]
    n = algebra.dim
    vectors = st.lists(RATIONALS, min_size=n, max_size=n)
    x, y = tuple(data.draw(vectors)), tuple(data.draw(vectors))
    assert algebra.cbh(x, y) == reference_cbh(algebra, x, y)
    integers = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    p, q = data.draw(integers), data.draw(integers)
    den = algebra.structure_tensor()[1]
    assert algebra.bracket_int(p, q) == [den * v for v in algebra.bracket(p, q)]
    for i in range(n):
        assert algebra.ad_int(i, q) == [den * v for v in algebra.bracket(basis_vec(n, i), q)]


def _exp_ad(algebra, x):
    """exp(ad x) = sum_k ad(x)^k / k!, an inner automorphism; ad(x)^step = 0."""
    n = algebra.dim
    ad = reference_ad_matrix(algebra, x)
    total, term = identity(n), identity(n)
    for k in range(1, algebra.step):
        term = [[v / k for v in row] for row in mat_mul(term, ad)]
        total = [[a + b for a, b in zip(r, s)] for r, s in zip(total, term)]
    return total


def _known_maps(name):
    """Bundled witnesses that act on the named algebra."""
    root, _, kind = name.partition("/")
    record = load(root)
    if kind == "quotient":
        return [atom.matrix for atom in record.quotient_witness.atoms()]
    if kind == "" and record.iso_witness is not None:
        return [record.iso_witness]
    return []


def _outcome(algebra, m, check):
    try:
        return check(algebra, m)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_is_automorphism_matches_the_fraction_check(name, data):
    algebra = _algebras()[name]
    n = algebra.dim
    vector = st.lists(RATIONALS, min_size=n, max_size=n)
    inner = _exp_ad(algebra, tuple(data.draw(vector)))
    maps = [identity(n), inner] + _known_maps(name)
    # One entry changed: usually no longer an automorphism.
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bent = [row[:] for row in inner]
    bent[i][j] += data.draw(RATIONALS)
    # Singular: column j repeated in column k, or a zero row.
    k = data.draw(st.integers(0, n - 1).filter(lambda k: k != j))
    repeated = [row[:k] + [row[j]] + row[k + 1:] for row in inner]
    zero_row = [row if a != i else [F(0)] * n for a, row in enumerate(inner)]
    maps += [bent, repeated, zero_row]
    outcomes = []
    for m in maps:
        got = _outcome(algebra, m, type(algebra).is_automorphism)
        assert got == _outcome(algebra, m, reference_is_automorphism)
        outcomes.append(got)
    assert outcomes[:2] == [True, True]
    assert outcomes[-2:] == ["map is singular", "map is singular"]


# -- the rational bracket, Jacobi check and JSON -----------------------------------

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "nilspec" / "data"


def test_to_json_matches_the_bundled_file():
    raw = json.loads((DATA_DIR / "algebras.json").read_text())
    for data in raw.values():
        expected = tuple(
            ((i, j), tuple((k, rat_from_str(c)) for k, c in terms))
            for i, j, terms in data["brackets"]
        )
        assert reference_table(NilLieAlgebra.from_json(data)) == expected


def _assert_rational_api_matches(algebra, x, y):
    n = algebra.dim
    assert algebra.bracket(x, y) == reference_bracket(algebra, x, y)
    for i in range(n):
        for j in range(n):
            expected = reference_bracket(algebra, basis_vec(n, i), basis_vec(n, j))
            assert algebra.basis_bracket(i, j) == expected


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bracket_and_jacobi_check_match_the_fraction_loop(name, data):
    algebra = _algebras()[name]
    vectors = st.lists(RATIONALS, min_size=algebra.dim, max_size=algebra.dim)
    _assert_rational_api_matches(algebra, tuple(data.draw(vectors)), tuple(data.draw(vectors)))
    assert algebra.validate().jacobi_violations == reference_jacobi_violations(algebra) == []


@st.composite
def random_brackets(draw):
    """(dim, {(i, j): [(k, c)]}): random pairs and terms, zeros and repeated k included."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)), max_size=8))
    brackets = {}
    for i, j in pairs:
        if i < j:
            term = st.tuples(st.integers(0, n - 1), st.one_of(st.just(F(0)), RATIONALS))
            brackets[(i, j)] = draw(st.lists(term, max_size=3))
    return n, brackets


@st.composite
def rescaled_bundled(draw):
    """A bundled algebra in the basis f_i = s_i e_i: fractional constants, Jacobi holds."""
    algebra = draw(st.sampled_from([load(root).algebra for root in EXAMPLE_IDS]))
    n = algebra.dim
    s = draw(st.lists(RATIONALS.filter(bool), min_size=n, max_size=n))
    brackets = {
        (i, j): [(k, c * s[i] * s[j] / s[k]) for k, c in terms]
        for (i, j), terms in reference_table(algebra)
    }
    return n, brackets


@settings(max_examples=150, deadline=None)
@given(drawn=st.one_of(random_brackets(), rescaled_bundled()), data=st.data())
def test_random_algebras_match_the_fraction_loop(drawn, data):
    n, brackets = drawn
    algebra = NilLieAlgebra(n, [f"e{i}" for i in range(n)], brackets)
    # algebra_json lists the nonzero terms as given, pairs in order.
    expected = []
    for pair, terms in sorted(brackets.items()):
        kept = tuple((k, F(c)) for k, c in terms if c)
        if kept:
            expected.append((pair, kept))
    assert reference_table(algebra) == tuple(expected)
    vectors = st.lists(RATIONALS, min_size=n, max_size=n)
    _assert_rational_api_matches(algebra, tuple(data.draw(vectors)), tuple(data.draw(vectors)))
    report = algebra.validate()
    assert report.jacobi_violations == reference_jacobi_violations(algebra)
    assert report.jacobi_ok == (not report.jacobi_violations)
