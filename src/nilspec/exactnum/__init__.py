"""Exact rational, matrix, and integer-lattice arithmetic.

Rationals are plain ``fractions.Fraction`` values.  The elimination core,
``bareiss_echelon``, runs on int matrices only; rational matrices reach it
through ``rref`` and ``bareiss_det``, which clear denominators first.
Polynomials in pi over Q(i) are not a ring here: the one-form layer keeps
them as (re, im) coefficient tuples and eliminates on integers itself.
The shell enumerators are imported from ``exactnum.qforms`` itself, not from
here, so that only the commands that enumerate shells compile them.
"""

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
from .scalars import perfect_square_root, rat_from_str, rat_to_str

__all__ = [
    "IntLattice",
    "bareiss_det",
    "bareiss_echelon",
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
