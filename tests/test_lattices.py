import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilspec.exactnum import IntLattice
from nilspec.exactnum.matrix import identity, invert_rational, mat_vec
from nilspec.lattices import LatticeSpec, maps_onto, quotient_covolume
from nilspec.liealg import NilLieAlgebra, Subspace
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.vecops import basis_vec, is_zero_vec, vadd, vscale

from conftest import build_dim5, build_dim7, lattice_gens
from fraction_references import assemble, reference_cbh, vneg
from json_writers import lattice_json

F = Fraction


def make_spec(pair_id):
    alg = build_dim7() if pair_id[0] in "IV" and len(pair_id.split(".")[0]) != 2 else None
    root = pair_id.split(".")[0]
    alg = build_dim5() if root in ("II", "IV") else build_dim7()
    return LatticeSpec(alg, lattice_gens(pair_id))


def top_quotient(spec):
    """The projection by the last nonzero term of the lower central series."""
    alg = spec.algebra
    return spec.quotient(*alg.quotient(alg.derived(alg.step - 1)))


ALL_PAIRS = ["I", "II", "III", "IV", "V"]


def test_generator_coordinates():
    spec = make_spec("I.1")
    coords = spec.malcev_coordinates(spec.generators[0])
    assert coords == [1, 0, 0, 0, 0, 0, 0]


def test_word_and_membership_dim5():
    spec = make_spec("II.1")
    # exp(2X1)exp(Y1) has log 2X1 + Y1 + Z + W/3 and lies in the lattice.
    g = spec.algebra.cbh(vscale(2, basis_vec(5, 0)), basis_vec(5, 1))
    assert g == (F(2), F(1), F(0), F(1), F(1, 3))
    assert spec.malcev_coordinates(g) == [1, 1, 0, 0, 0]
    assert spec.contains(g)
    # Scaling the Y1 exponent by 1/2 leaves the lattice.
    h = spec.algebra.cbh(vscale(2, basis_vec(5, 0)), vscale(F(1, 2), basis_vec(5, 1)))
    assert not spec.contains(h)


def test_half_shifted_generator_is_member():
    spec = make_spec("I.2")
    g = vadd(basis_vec(7, 3), vscale(F(1, 2), basis_vec(7, 5)))
    assert spec.contains(g)
    assert spec.malcev_coordinates(g) == [0, 0, 0, 1, 0, 0, 0]


def test_rejects_non_adapted_generators():
    alg = build_dim7()
    gens = [basis_vec(7, i) for i in range(7)]  # unscaled X's: products escape
    with pytest.raises(ValueError):
        LatticeSpec(alg, gens)


def test_rejects_reordered_generators():
    alg = build_dim5()
    gens = lattice_gens("II.1")
    with pytest.raises(ValueError):
        LatticeSpec(alg, [gens[4], gens[0], gens[1], gens[2], gens[3]])


def test_roundtrip_random_words():
    rng = random.Random(42)
    for pair_id in ("I.1", "I.2", "II.2", "III.2", "V.2"):
        spec = make_spec(pair_id)
        n = spec.algebra.dim
        for _ in range(200):
            coords = [F(rng.randint(-4, 4)) for _ in range(n)]
            g = assemble(spec, coords)
            assert spec.malcev_coordinates(g) == coords
            assert spec.contains(g)


def test_membership_closed_under_product_and_inverse():
    rng = random.Random(43)
    for pair_id in ("I.2", "II.2", "V.2"):
        spec = make_spec(pair_id)
        n = spec.algebra.dim
        for _ in range(60):
            a = assemble(spec, [F(rng.randint(-3, 3)) for _ in range(n)])
            b = assemble(spec, [F(rng.randint(-3, 3)) for _ in range(n)])
            assert spec.contains(spec.algebra.cbh(a, b))
            assert spec.contains(vneg(a))


def test_center_intersection_pairs():
    for root in ALL_PAIRS:
        s1 = make_spec(f"{root}.1")
        s2 = make_spec(f"{root}.2")
        c1 = s1.center_intersection()
        c2 = s2.center_intersection()
        assert c1 == c2
        n = s1.algebra.dim
        assert c1 == IntLattice(n, [basis_vec(n, n - 1)])


def test_center_intersection_abelian():
    from nilspec.liealg import NilLieAlgebra

    ab = NilLieAlgebra(3, ["a", "b", "c"], {})
    spec = LatticeSpec(ab, [basis_vec(3, i) for i in range(3)])
    c = spec.center_intersection()
    assert c == IntLattice(3, identity(3))


def test_quotient_lattices_match_expected_spans():
    s1 = make_spec("III.1")
    q1, lat1 = top_quotient(s1)
    assert q1.algebra.dim == 6
    expect1 = IntLattice(
        6,
        [
            vscale(2, basis_vec(6, 0)),
            vscale(2, basis_vec(6, 1)),
            basis_vec(6, 2),
            basis_vec(6, 3),
            basis_vec(6, 4),
            basis_vec(6, 5),
        ],
    )
    assert lat1 == expect1

    s2 = make_spec("III.2")
    q2, lat2 = top_quotient(s2)
    expect2 = IntLattice(
        6,
        [
            basis_vec(6, 0),
            basis_vec(6, 1),
            vscale(2, basis_vec(6, 2)),
            vscale(2, basis_vec(6, 3)),
            basis_vec(6, 4),
            basis_vec(6, 5),
        ],
    )
    assert lat2 == expect2


def test_quotient_abelian_case():
    from nilspec.liealg import NilLieAlgebra

    ab = NilLieAlgebra(2, ["a", "b"], {})
    spec = LatticeSpec(ab, [basis_vec(2, 0), basis_vec(2, 1)])
    q, lat = spec.quotient(*ab.quotient(Subspace(2, [])))
    assert q.algebra.dim == 2
    assert lat == IntLattice(2, identity(2))


def test_quotient_covolume_example_iii():
    cols6 = identity(6)
    _, lat1 = top_quotient(make_spec("III.1"))
    _, lat2 = top_quotient(make_spec("III.2"))
    assert quotient_covolume(lat1, cols6) == 16
    assert quotient_covolume(lat2, cols6) == 16


def test_quotient_covolume_scaling_and_invariance():
    cols = identity(2)
    lat = IntLattice(2, [[F(1), F(0)], [F(0), F(1)]])
    assert quotient_covolume(lat, cols) == 1
    doubled = IntLattice(2, [[F(2), F(0)], [F(0), F(1)]])
    assert quotient_covolume(doubled, cols) == 4
    # Unimodular change of basis leaves the Gram determinant fixed.
    mixed = IntLattice(2, [[F(2), F(1)], [F(2), F(0)]])
    same = IntLattice(2, [[F(2), F(1)], [F(0), F(-1)]])
    assert mixed == same
    assert quotient_covolume(mixed, cols) == quotient_covolume(same, cols)


def test_log_cover_lattice():
    spec = make_spec("I.2")
    alg = spec.algebra
    sub = spec.log_cover_lattice(alg.derived(1))
    assert sub == IntLattice(7, [basis_vec(7, 4), basis_vec(7, 5), basis_vec(7, 6)])
    c = alg.centralizer(alg.derived(1))
    subc = spec.log_cover_lattice(c)
    assert subc.rank == 5
    assert subc.member(vadd(basis_vec(7, 3), vscale(F(1, 2), basis_vec(7, 5))))
    # Products of intersection members stay inside the cover.
    assert subc.member(
        alg.cbh(
            basis_vec(7, 2), vadd(basis_vec(7, 3), vscale(F(1, 2), basis_vec(7, 5)))
        )
    )
    with pytest.raises(ValueError):
        spec.log_cover_lattice(Subspace(7, [basis_vec(7, 0)]))


def test_lattice_json_roundtrip():
    spec = make_spec("V.2")
    data = lattice_json(spec, "dim7")
    back = LatticeSpec.from_json(data, build_dim7())
    assert back.generators == spec.generators
    assert lattice_json(back, "dim7") == data


def test_maps_onto_checks_both_directions():
    spec = load("I").spec1
    n = spec.algebra.dim
    assert maps_onto(identity(n), spec, spec)
    record = load("II")
    assert maps_onto(record.iso_witness, record.spec1, record.spec2)
    singular = identity(n)
    singular[0][0] = F(0)
    assert not maps_onto(singular, spec, spec)
    # 2I sends the lattice into itself but not onto it.
    double = [[2 * x for x in row] for row in identity(n)]
    assert all(spec.contains([2 * x for x in g]) for g in spec.generators)
    assert not maps_onto(double, spec, spec)


def reference_malcev_coordinates(spec, g_log):
    """The Fraction peel: t_i by the inverse change of basis, then cbh(-t_i v_i, w).

    The group law is ``reference_cbh``, so the peel is independent of the
    integer kernel that ``LatticeSpec`` and ``NilLieAlgebra.cbh`` run on.
    """
    n = spec.algebra.dim
    to_gen = invert_rational([[spec.generators[j][i] for j in range(n)] for i in range(n)])
    w = tuple(F(x) for x in g_log)
    coords = []
    for i in range(n):
        t = sum(to_gen[i][k] * w[k] for k in range(n))
        coords.append(t)
        if t:
            w = reference_cbh(spec.algebra, vscale(-t, spec.generators[i]), w)
    assert is_zero_vec(w)
    return coords


BUNDLED_SPECS = [(root, side) for root in EXAMPLE_IDS for side in ("spec1", "spec2")]


@pytest.fixture(scope="module")
def bundled():
    records = {root: load(root) for root in EXAMPLE_IDS}
    return {(root, side): getattr(records[root], side) for root, side in BUNDLED_SPECS}


@pytest.mark.parametrize("key", BUNDLED_SPECS, ids=lambda k: ".".join(k))
def test_center_intersection_is_the_suffix_lattice(key, bundled):
    spec = bundled[key]
    center, n = spec.algebra.center(), spec.algebra.dim
    suffix = []
    for g in reversed(spec.generators):
        if not center.contains(g):
            break
        suffix.insert(0, g)
    assert suffix and Subspace(n, suffix) == center
    got = spec.center_intersection()
    assert isinstance(got, IntLattice)
    assert got == IntLattice(n, suffix)


def _agrees_with_reference(spec, g):
    expected = reference_malcev_coordinates(spec, g)
    assert spec.malcev_coordinates(g) == expected
    assert spec.contains(g) == all(t.denominator == 1 for t in expected)
    return expected


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malcev_peel_matches_fraction_peel_on_rationals(bundled, root, side, data):
    spec = bundled[(root, side)]
    rational = st.fractions(min_value=-12, max_value=12, max_denominator=12)
    g = data.draw(st.lists(rational, min_size=spec.algebra.dim, max_size=spec.algebra.dim))
    _agrees_with_reference(spec, g)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malcev_peel_matches_fraction_peel_on_words(bundled, root, side, data):
    spec = bundled[(root, side)]
    n = spec.algebra.dim
    word = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    g = assemble(spec, word)
    assert _agrees_with_reference(spec, g) == word
    assert spec.contains(g)
    # Halving the last exponent leaves the lattice when that exponent is odd.
    halved = assemble(spec, word[:-1] + [F(word[-1], 2)])
    assert _agrees_with_reference(spec, halved)[-1] == F(word[-1], 2)
    assert spec.contains(halved) == (word[-1] % 2 == 0)


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_contains_scaled_matches_contains(bundled, root, side, data):
    spec = bundled[(root, side)]
    n = spec.algebra.dim
    den = data.draw(st.integers(1, 12))
    num = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    assert spec.contains_scaled(num, den) == spec.contains(tuple(F(x, den) for x in num))
    # A lattice member written over a denominator larger than its own.
    g = assemble(spec, data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    common = lcm(*(x.denominator for x in g)) * den
    scaled = [int(x * common) for x in g]
    assert spec.contains_scaled(scaled, common)
    assert spec.contains_scaled([x + 1 for x in scaled], common) == spec.contains(
        tuple(F(x + 1, common) for x in scaled)
    )


# -- construction and projection against the Fraction checks -------------------------


def reference_construction_error(algebra, gens):
    """The Fraction checks of an adapted basis, in order; the first error text or None.

    Tails by ``is_ideal`` over spans, adaptedness by ``cbh`` of each ordered
    pair of generators and the Fraction peel.
    """
    n = algebra.dim
    try:
        invert_rational([[g[i] for g in gens] for i in range(n)])
    except ValueError:
        return "generators are linearly dependent"
    for i in range(1, n):
        if not algebra.is_ideal(Subspace(n, gens[i:])):
            return f"generator tail starting at {i} is not an ideal"
    basis = SimpleNamespace(algebra=algebra, generators=gens)
    for i in range(n):
        for j in range(n):
            if i != j:
                coords = reference_malcev_coordinates(basis, reference_cbh(algebra, gens[i], gens[j]))
                if any(t.denominator != 1 for t in coords):
                    return "generator products leave the lattice: not an adapted basis"
    return None


def reference_quotient(spec, qalg, proj):
    """The Fraction projection: (generators, Z-span) or the error text.

    The span is accepted when ``IntLattice.member`` finds every pairwise
    ``cbh`` product and bracket of projected generators inside it.
    """
    projected = [tuple(mat_vec(proj, g)) for g in spec.generators]
    surviving = [p for p in projected if not is_zero_vec(p)]
    if len(surviving) != qalg.dim:
        return "projected generators do not form a basis"
    error = reference_construction_error(qalg, surviving)
    if error is not None:
        return error
    lattice = IntLattice(qalg.dim, surviving)
    for a in surviving:
        for b in surviving:
            if not lattice.member(reference_cbh(qalg, a, b)):
                return "projected span is not closed under the group law"
            if not lattice.member(qalg.bracket(a, b)):
                return "projected span is not bracket-closed"
    return surviving, lattice


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _projections(algebra):
    """(quotient algebra, projection) by the top of the lower central series and by the center."""
    return [algebra.quotient(algebra.derived(algebra.step - 1)), algebra.quotient(algebra.center())]


COEFFS = [F(1, 2), F(2), F(-1), F(1, 3), F(3, 2), F(-1, 2)]


@st.composite
def perturbed(draw, gens):
    """Bundled generators after a few scalings, shears and adjacent swaps."""
    gens = list(gens)
    n = len(gens)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["scale", "shear", "swap"]))
        i = draw(st.integers(0, n - 1))
        if kind == "scale":
            gens[i] = vscale(draw(st.sampled_from(COEFFS)), gens[i])
        elif kind == "shear":
            j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
            gens[i] = vadd(gens[i], vscale(draw(st.sampled_from(COEFFS)), gens[j]))
        elif i + 1 < n:
            gens[i], gens[i + 1] = gens[i + 1], gens[i]
    return gens


@pytest.mark.parametrize("root, side", BUNDLED_SPECS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_construction_and_quotient_match_the_fraction_checks(bundled, root, side, data):
    algebra = bundled[(root, side)].algebra
    gens = data.draw(perturbed(bundled[(root, side)].generators))
    spec = _outcome(lambda: LatticeSpec(algebra, gens))
    expected = reference_construction_error(algebra, gens)
    if expected is not None:
        assert spec == expected
        return
    assert isinstance(spec, LatticeSpec)
    for qalg, proj in _projections(algebra):
        got = _outcome(lambda: spec.quotient(qalg, proj))
        want = reference_quotient(spec, qalg, proj)
        if isinstance(want, str):
            assert got == want
        else:
            qspec, lattice = got
            assert qspec.algebra is qalg
            assert (qspec.generators, lattice) == want


def test_construction_and_quotient_skip_the_fraction_path(bundled, monkeypatch):
    projections = {key: _projections(spec.algebra) for key, spec in bundled.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction path used")

    for owner, name in ((NilLieAlgebra, "cbh"), (NilLieAlgebra, "is_ideal"), (IntLattice, "member")):
        monkeypatch.setattr(owner, name, forbidden)
    for key, spec in bundled.items():
        rebuilt = LatticeSpec(spec.algebra, spec.generators)
        for qalg, proj in projections[key]:
            rebuilt.quotient(qalg, proj)
