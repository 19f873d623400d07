"""Left-invariant metrics, the Koszul connection, one-form Laplacians.

A metric is a choice of orthonormal frame E_1..E_n given by columns in the
structure basis.  All geometric data is computed in that frame: connection
coefficients from the Koszul formula, and the Laplacian on invariant
one-forms as the exact Gram matrix of the exterior derivative.  Both are
functions of the metric alone (it knows its algebra): each table is built
once per metric, on first use, and returned as the nested tuples it keeps.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import rat_matrix
from .exactnum.matrix import invert_rational, mat_mul, mat_vec
from .liealg import NilLieAlgebra, Subspace
from .vecops import vec

F0 = Fraction(0)


class Metric:
    """Orthonormal frame for a left-invariant metric."""

    def __init__(self, algebra: NilLieAlgebra, columns):
        self.algebra = algebra
        n = algebra.dim
        cols = [vec(c) for c in columns]
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError("need one frame column per dimension")
        self.columns = cols
        matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
        try:
            self._inv = invert_rational(matrix)
        except ValueError:
            raise ValueError("frame columns are dependent") from None
        self.matrix = matrix
        self._frame_brackets = self._connection = self._laplacian = None

    def to_frame(self, v):
        return tuple(mat_vec(self._inv, v))

    def frame_matrix(self, m):
        """Matrix of the linear map m in the orthonormal frame."""
        return mat_mul(self._inv, mat_mul(m, self.matrix))

    def frame_brackets(self):
        """Structure constants in the frame: [E_i, E_j] = sum_k c[i][j][k] E_k.

        Computed once per metric, as nested tuples.
        """
        if self._frame_brackets is None:
            cols = self.columns
            self._frame_brackets = tuple(
                tuple(self.to_frame(self.algebra.bracket(ci, cj)) for cj in cols)
                for ci in cols
            )
        return self._frame_brackets

    def quotient(self, ideal: Subspace, quot_algebra: NilLieAlgebra, proj):
        """Induced metric on the quotient by a frame-spanned ideal.

        Requires the ideal to be spanned by a subset of the frame columns;
        the remaining columns are then orthonormal for the induced metric.
        """
        inside = [j for j, c in enumerate(self.columns) if ideal.contains(c)]
        if Subspace(self.algebra.dim, [self.columns[j] for j in inside]) != ideal:
            raise ValueError("ideal is not spanned by frame columns")
        cols = [
            tuple(mat_vec(proj, self.columns[j]))
            for j in range(self.algebra.dim)
            if j not in inside
        ]
        return Metric(quot_algebra, cols)

    @staticmethod
    def from_json(data: dict, algebra: NilLieAlgebra) -> "Metric":
        return Metric(algebra, rat_matrix(data["orthonormal_columns"], algebra.dim))


def koszul_connection(metric: Metric) -> tuple:
    """Levi-Civita coefficients in the frame, built on first use.

    nabla_{E_i} E_j = sum_k g[i][j][k] E_k, with g returned as nested
    tuples.  Because covectors are moved by duality, the same table gives
    nabla_{E_i} eps_m = sum_k g[i][m][k] eps_k.
    """
    if metric._connection is None:
        n = metric.algebra.dim
        c = metric.frame_brackets()
        half = Fraction(1, 2)
        metric._connection = tuple(
            tuple(
                tuple(half * (c[k][i][j] + c[k][j][i] + c[i][j][k]) for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
    return metric._connection


def laplacian_on_invariant_oneforms(metric: Metric):
    """Matrix of delta d on invariant one-forms in the dual frame, built on first use.

    d eps_m (E_i, E_j) = -eps_m([E_i, E_j]); the codifferential of every
    invariant one-form vanishes, so the Laplacian is the Gram matrix of d
    with respect to the orthonormal bases of one- and two-forms.
    """
    if metric._laplacian is None:
        n = metric.algebra.dim
        c = metric.frame_brackets()
        out = [[F0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for l in range(n):
                    if c[i][j][l] == 0:
                        continue
                    for m in range(n):
                        out[l][m] += c[i][j][l] * c[i][j][m]
        metric._laplacian = tuple(map(tuple, out))
    return metric._laplacian
