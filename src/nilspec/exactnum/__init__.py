"""Exact scalar, polynomial, matrix, and integer-lattice arithmetic."""

from .matrix import (
    bareiss_det,
    bareiss_echelon,
    identity,
    invert_rational,
    mat_mul,
    mat_vec,
    pfaffian,
    rank_and_kernel,
    rref,
    solve_rational,
    transpose,
)
from .intlattice import (
    IntLattice,
    hnf,
    integer_kernel,
    integer_solvable,
    snf,
    solve_integer,
)
from .poly import POLY_ONE, POLY_P, POLY_ZERO, UniPoly
from .qforms import enumerate_on_shell, enumerate_up_to
from .quadext import ModulusMismatch, QuadExtElem
from .scalars import (
    GAUSS_I,
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussRat,
    perfect_square_root,
    rat_from_str,
    rat_to_str,
)

__all__ = [
    "GAUSS_I",
    "GAUSS_ONE",
    "GAUSS_ZERO",
    "GaussRat",
    "IntLattice",
    "ModulusMismatch",
    "POLY_ONE",
    "POLY_P",
    "POLY_ZERO",
    "QuadExtElem",
    "UniPoly",
    "bareiss_det",
    "bareiss_echelon",
    "enumerate_on_shell",
    "enumerate_up_to",
    "hnf",
    "identity",
    "integer_kernel",
    "integer_solvable",
    "invert_rational",
    "mat_mul",
    "mat_vec",
    "perfect_square_root",
    "pfaffian",
    "rank_and_kernel",
    "rat_from_str",
    "rat_to_str",
    "rref",
    "snf",
    "solve_integer",
    "solve_rational",
    "transpose",
]
