from fractions import Fraction

import pytest

from nilspec.geometry import Metric
from nilspec.liealg import NilLieAlgebra

# Basis indices for the 7-dimensional 3-step algebra:
#   X1=0, X2=1, Y1=2, Y2=3, Z1=4, Z2=5, W=6
# and for the 5-dimensional 3-step algebra:
#   X1=0, Y1=1, Y2=2, Z=3, W=4.


def standard_metric(algebra):
    """The metric whose orthonormal frame is the structure basis."""
    n = algebra.dim
    return Metric(algebra, [[Fraction(int(i == j)) for i in range(n)] for j in range(n)])


def build_dim7():
    one = Fraction(1)
    return NilLieAlgebra(
        7,
        ["X1", "X2", "Y1", "Y2", "Z1", "Z2", "W"],
        {
            (0, 2): [(4, one)],
            (1, 3): [(4, one)],
            (0, 3): [(5, one)],
            (0, 4): [(6, one)],
            (1, 5): [(6, one)],
            (2, 3): [(6, one)],
        },
    )


def build_dim5():
    one = Fraction(1)
    return NilLieAlgebra(
        5,
        ["X1", "Y1", "Y2", "Z", "W"],
        {
            (0, 1): [(3, one)],
            (0, 3): [(4, one)],
            (1, 2): [(4, one)],
        },
    )


def build_heisenberg_plus_line():
    one = Fraction(1)
    return NilLieAlgebra(4, ["X", "Y", "Z", "U"], {(0, 1): [(2, one)]})


def example_v_map():
    F = Fraction
    cols = {
        0: {0: F(-1), 1: F(1), 2: F(1, 4), 3: F(1, 2)},
        1: {1: F(1), 2: F(-1, 2), 4: F(1, 4)},
        2: {2: F(-1)},
        3: {2: F(2), 3: F(1), 5: F(1)},
        4: {4: F(1), 6: F(1, 2)},
        5: {4: F(-1), 5: F(-1), 6: F(1, 4)},
        6: {6: F(-1)},
    }
    m = [[F(0)] * 7 for _ in range(7)]
    for j, col in cols.items():
        for i, v in col.items():
            m[i][j] = v
    return m


def _e(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def _scale(c, v):
    return tuple(Fraction(c) * x for x in v)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def lattice_gens(pair_id: str):
    """Generator logs for the bundled example lattices."""
    e7 = [_e(7, i) for i in range(7)]
    e5 = [_e(5, i) for i in range(5)]
    gens = {
        "I.1": [_scale(2, e7[0]), _scale(2, e7[1]), e7[2], e7[3], e7[4], e7[5], e7[6]],
        "I.2": [
            _scale(2, e7[0]),
            _scale(2, e7[1]),
            e7[2],
            _add(e7[3], _scale(Fraction(1, 2), e7[5])),
            e7[4],
            e7[5],
            e7[6],
        ],
        "II.1": [_scale(2, e5[0]), e5[1], e5[2], e5[3], e5[4]],
        "II.2": [
            _scale(2, e5[0]),
            _add(e5[1], _scale(Fraction(1, 2), e5[3])),
            e5[2],
            e5[3],
            e5[4],
        ],
        "III.2": [e7[0], e7[1], _scale(2, e7[2]), _scale(2, e7[3]), e7[4], e7[5], e7[6]],
        "IV.2": [e5[0], _scale(2, e5[1]), e5[2], e5[3], e5[4]],
    }
    gens["III.1"] = gens["I.1"]
    gens["IV.1"] = gens["II.1"]
    gens["V.1"] = gens["I.1"]
    m = example_v_map()
    gens["V.2"] = [
        tuple(sum(m[i][j] * g[j] for j in range(7)) for i in range(7))
        for g in gens["I.1"]
    ]
    return gens[pair_id]


@pytest.fixture
def dim7():
    return build_dim7()


@pytest.fixture
def dim5():
    return build_dim5()


@pytest.fixture
def heis_line():
    return build_heisenberg_plus_line()
