"""Known answers for the five bundled pairs, independent of nilspec's output.

``PAPER_TABLE`` is the paper's comparison table (all five pairs are
isospectral on functions).  ``bench_selfcheck.py`` asserts that it agrees
with the ``expected_table`` shipped in ``src/nilspec/data/example_*.json``.
"""

EXAMPLE_IDS = ("I", "II", "III", "IV", "V")

PAPER_TABLE = {
    "I": {"rep_equivalent": True, "same_p_form": True, "isomorphic": False},
    "II": {"rep_equivalent": True, "same_p_form": True, "isomorphic": True},
    "III": {"rep_equivalent": False, "same_p_form": False, "isomorphic": False},
    "IV": {"rep_equivalent": False, "same_p_form": False, "isomorphic": False},
    "V": {"rep_equivalent": False, "same_p_form": False, "isomorphic": True},
}

# Multiplicity of the candidate eigenvalue in the character sector,
# (lattice 1, lattice 2), for the pairs that differ on one-forms.
ONE_FORM_MULTIPLICITIES = {"III": (0, 2), "IV": (2, 0), "V": (0, 2)}

# The isomorphism between the two lattices of pair II (the bundled
# ``iso_witness``); ``search-iso II`` must find exactly this matrix.
II_ISOMORPHISM = [
    ["1", "0", "0", "0", "0"],
    ["0", "1", "0", "0", "0"],
    ["1/2", "0", "1", "0", "0"],
    ["0", "1/2", "0", "1", "0"],
    ["0", "0", "0", "0", "1"],
]
