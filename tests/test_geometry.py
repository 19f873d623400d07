from fractions import Fraction

import pytest

from nilspec.geometry import (
    Metric,
    koszul_connection,
    laplacian_on_invariant_oneforms,
)
from nilspec.exactnum import bareiss_det
from nilspec.liealg import NilLieAlgebra
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.vecops import vdot

from conftest import build_dim5, build_dim7, standard_metric
from oneform_references import connection_identities_hold, nabla_chart

F = Fraction
H = F(1, 2)


def metric_v(alg7):
    cols = [
        [1, F(-1, 2), 0, F(-1, 4), 0, 0, 0],  # E1 = X1 - X2/2 - Y2/4
        [0, 1, F(-1, 4), 0, 0, 0, 0],  # E2 = X2 - Y1/4
        [0, 0, 1, 0, 0, 0, 0],  # E3 = Y1
        [0, 0, 1, 1, 0, 0, 0],  # E4 = Y1 + Y2
        [0, 0, 0, 0, 1, 0, 0],  # E5 = Z1
        [0, 0, 0, 0, H, 1, 0],  # E6 = Z1/2 + Z2
        [0, 0, 0, 0, 0, 0, 1],  # E7 = W
    ]
    return Metric(alg7, cols)


CHART_III = {
    (0, 2): [(4, H)],
    (0, 3): [(5, H)],
    (0, 4): [(2, -H), (6, H)],
    (0, 5): [(3, -H)],
    (0, 6): [(4, -H)],
    (1, 3): [(4, H)],
    (1, 4): [(3, -H)],
    (1, 5): [(6, H)],
    (1, 6): [(5, -H)],
    (2, 0): [(4, -H)],
    (2, 3): [(6, H)],
    (2, 4): [(0, H)],
    (2, 6): [(3, -H)],
    (3, 0): [(5, -H)],
    (3, 1): [(4, -H)],
    (3, 2): [(6, -H)],
    (3, 4): [(1, H)],
    (3, 5): [(0, H)],
    (3, 6): [(2, H)],
}

CHART_IV = {
    (0, 1): [(3, H)],
    (0, 3): [(1, -H), (4, H)],
    (0, 4): [(3, -H)],
    (1, 0): [(3, -H)],
    (1, 2): [(4, H)],
    (1, 3): [(0, H)],
    (1, 4): [(2, -H)],
    (2, 1): [(4, -H)],
    (2, 4): [(1, H)],
}

E = F(1, 8)
T = F(1, 32)

CHART_V = {
    (0, 1): [(6, -T)],
    (0, 2): [(4, H), (6, E)],
    (0, 3): [(5, H), (6, E)],
    (0, 4): [(2, -H), (6, H)],
    (0, 5): [(3, -H)],
    (0, 6): [(1, T), (2, -E), (3, -E), (4, -H)],
    (1, 0): [(6, T)],
    (1, 3): [(4, H), (6, -E)],
    (1, 4): [(3, -H)],
    (1, 5): [(6, H)],
    (1, 6): [(0, -T), (3, E), (5, -H)],
    (2, 0): [(4, -H), (6, -E)],
    (2, 3): [(6, H)],
    (2, 4): [(0, H)],
    (2, 6): [(0, E), (3, -H)],
    (3, 0): [(5, -H), (6, -E)],
    (3, 1): [(4, -H), (6, E)],
    (3, 2): [(6, -H)],
    (3, 4): [(1, H)],
    (3, 5): [(0, H)],
    (3, 6): [(0, E), (1, -E), (2, H)],
}


def check_chart(chart, expected, rows, dim):
    for i in rows:
        for m in range(dim):
            got = chart[(i, m)]
            want = expected.get((i, m), [])
            assert got == want, f"chart entry ({i},{m}): {got} != {want}"


def test_connection_identities_all_metrics():
    alg7, alg5 = build_dim7(), build_dim5()
    for metric in (standard_metric(alg7), standard_metric(alg5), metric_v(alg7)):
        assert connection_identities_hold(metric)


def test_chart_standard_dim7():
    alg = build_dim7()
    chart = nabla_chart(alg, standard_metric(alg), directions=range(4))
    check_chart(chart, CHART_III, range(4), 7)


def test_chart_standard_dim5():
    alg = build_dim5()
    chart = nabla_chart(alg, standard_metric(alg), directions=range(3))
    check_chart(chart, CHART_IV, range(3), 5)


def test_chart_frame_metric_dim7():
    alg = build_dim7()
    chart = nabla_chart(alg, metric_v(alg), directions=range(4))
    check_chart(chart, CHART_V, range(4), 7)


def test_abelian_chart_zero():
    ab = NilLieAlgebra(3, ["a", "b", "c"], {})
    chart = nabla_chart(ab, standard_metric(ab))
    assert all(not terms for terms in chart.values())


def test_invariant_laplacian_dim7():
    alg = build_dim7()
    lap = laplacian_on_invariant_oneforms(standard_metric(alg))
    expected = [[F(0)] * 7 for _ in range(7)]
    expected[4][4] = F(2)
    expected[5][5] = F(1)
    expected[6][6] = F(3)
    assert lap == tuple(map(tuple, expected))


def test_invariant_laplacian_dim5():
    alg = build_dim5()
    lap = laplacian_on_invariant_oneforms(standard_metric(alg))
    expected = [[F(0)] * 5 for _ in range(5)]
    expected[3][3] = F(1)
    expected[4][4] = F(2)
    assert lap == tuple(map(tuple, expected))


def test_invariant_laplacian_frame_metric():
    alg = build_dim7()
    lap = laplacian_on_invariant_oneforms(metric_v(alg))
    expected = [[F(0)] * 7 for _ in range(7)]
    expected[4][4] = F(2)
    expected[5][5] = F(1)
    expected[5][6] = expected[6][5] = F(1, 4)
    expected[6][6] = F(3) + F(1, 256) + F(3, 16)
    assert lap == tuple(map(tuple, expected))


def test_laplacian_symmetric_psd():
    alg = build_dim7()
    for metric in (standard_metric(alg), metric_v(alg)):
        lap = laplacian_on_invariant_oneforms(metric)
        assert lap == tuple(zip(*lap))
        for k in range(1, 8):
            minor = [row[:k] for row in lap[:k]]
            assert bareiss_det(minor) >= 0


def test_metric_quotient():
    alg = build_dim7()
    ideal = alg.derived(2)
    quot, proj = alg.quotient(ideal)
    m = metric_v(alg).quotient(ideal, quot, proj)
    assert m.algebra is quot
    assert len(m.columns) == 6
    assert m.columns[5] == (F(0), F(0), F(0), F(0), H, F(1))
    std = standard_metric(alg).quotient(ideal, quot, proj)
    assert std.columns[0] == (F(1), F(0), F(0), F(0), F(0), F(0))


def test_metric_quotient_requires_frame_spanned_ideal():
    alg = build_dim7()
    ideal = alg.derived(1)  # span{Z1, Z2, W}
    quot, proj = alg.quotient(ideal)
    bad_cols = [[F(1) if i == j else F(0) for i in range(7)] for j in range(7)]
    bad_cols[4][5] = F(1, 3)  # tilt a frame vector out of the ideal split
    bad_cols[4][0] = F(1)
    with pytest.raises(ValueError):
        Metric(alg, bad_cols).quotient(ideal, quot, proj)


def test_inner_product_and_frames():
    alg = build_dim7()
    m = metric_v(alg)
    for j, col in enumerate(m.columns):
        for k, col2 in enumerate(m.columns):
            assert vdot(m.to_frame(col), m.to_frame(col2)) == (1 if j == k else 0)


def test_frame_brackets_are_computed_once():
    metric = metric_v(build_dim7())
    c = metric.frame_brackets()
    assert isinstance(c, tuple)
    assert all(isinstance(row, tuple) and all(isinstance(v, tuple) for v in row) for row in c)
    assert metric.frame_brackets() is c


def _fresh_tables(metric):
    """Koszul coefficients and invariant Laplacian from the frame brackets,
    uncached, as nested tuples (a tuple never equals a list)."""
    c = metric.frame_brackets()
    n = len(c)
    gamma = tuple(
        tuple(tuple((c[k][i][j] + c[k][j][i] + c[i][j][k]) / 2 for k in range(n)) for j in range(n))
        for i in range(n)
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lap = tuple(
        tuple(sum((c[i][j][l] * c[i][j][m] for i, j in pairs), F(0)) for m in range(n)) for l in range(n)
    )
    return gamma, lap


@pytest.mark.parametrize("root", EXAMPLE_IDS + ("two metrics on one algebra",))
def test_connection_and_laplacian_are_built_once_per_metric(root):
    if root in EXAMPLE_IDS:
        record = load(root)
        metrics = [record.metric, record.quotient_data()[2], standard_metric(record.algebra)]
    else:
        alg = build_dim7()
        metrics = [standard_metric(alg), metric_v(alg)]
    for metric in metrics:
        gamma = koszul_connection(metric)
        lap = laplacian_on_invariant_oneforms(metric)
        assert koszul_connection(metric) is gamma
        assert laplacian_on_invariant_oneforms(metric) is lap
        assert (gamma, lap) == _fresh_tables(metric)
        assert connection_identities_hold(metric)
