"""The functions the traced run times, one row per function.

Each row is ``(layer, module, qualname, workload)``.  ``layer`` is the
nilspec module the metric is named after, ``module`` is where the function
is defined, and ``workload`` is a workload on which the function must record
at least one call (the benchmark's self-check asserts it, so a binding the
tracer failed to patch shows up as a failure, not as a silent zero).

``quadext``, ``poly`` and ``scalars`` are left out on purpose: they are
called millions of times, and wrapping them would swamp the run.  Their
cost shows up as self time of ``bareiss_echelon`` and ``det_at``.
"""

TIMED = [
    ("cli", "nilspec.cli", "run", "verdicts"),
    ("registry", "nilspec.registry", "load", "verdicts"),
    ("registry", "nilspec.registry", "table_one", "verdicts"),
    ("repspec", "nilspec.repspec", "certify_isospectral", "verdicts"),
    ("repspec", "nilspec.repspec", "certify_rep_equivalent", "verdicts"),
    ("repspec", "nilspec.repspec", "pesce_occurrence_and_multiplicity", "verdicts"),
    ("repspec", "nilspec.repspec", "moore_wolf_multiplicity", "verdicts"),
    ("repspec", "nilspec.repspec", "orbit_pairing_report", "verdicts"),
    ("repspec", "nilspec.repspec", "Pair.quotient_data", "verdicts"),
    ("oneform", "nilspec.oneform", "distinguish_pair", "verdicts"),
    ("oneform", "nilspec.oneform", "assemble_E", "verdicts"),
    ("oneform", "nilspec.oneform", "det_at", "verdicts"),
    ("oneform", "nilspec.oneform", "nullity_at", "verdicts"),
    ("oneform", "nilspec.oneform", "enumerate_shell", "verdicts"),
    ("geometry", "nilspec.geometry", "laplacian_on_invariant_oneforms", "verdicts"),
    ("geometry", "nilspec.geometry", "koszul_connection", "verdicts"),
    ("geometry", "nilspec.geometry", "Metric.frame_brackets", "verdicts"),
    ("lattices", "nilspec.lattices", "LatticeSpec.__init__", "verdicts"),
    ("lattices", "nilspec.lattices", "LatticeSpec.contains", "search"),
    ("lattices", "nilspec.lattices", "LatticeSpec.quotient", "verdicts"),
    ("lattices", "nilspec.lattices", "LatticeSpec.log_cover_lattice", "search"),
    ("lattices", "nilspec.lattices", "LatticeSpec.generator_coordinates", "search"),
    ("liealg", "nilspec.liealg", "NilLieAlgebra.cbh", "search"),
    ("liealg", "nilspec.liealg", "NilLieAlgebra.bracket", "verdicts"),
    ("liealg", "nilspec.liealg", "NilLieAlgebra.is_automorphism", "verdicts"),
    ("liealg", "nilspec.liealg", "NilLieAlgebra.validate", "verdicts"),
    ("liealg", "nilspec.liealg", "is_strictly_nonsingular_sampled", "verdicts"),
    ("isosearch", "nilspec.isosearch", "bounded_lattice_isomorphism_search", "search"),
    ("exactnum", "nilspec.exactnum.matrix", "bareiss_echelon", "verdicts"),
    ("exactnum", "nilspec.exactnum.matrix", "rank_and_kernel", "verdicts"),
    ("exactnum", "nilspec.exactnum.matrix", "invert_rational", "verdicts"),
    ("exactnum", "nilspec.exactnum.intlattice", "hnf", "verdicts"),
    ("exactnum", "nilspec.exactnum.intlattice", "snf", "search"),
    ("exactnum", "nilspec.exactnum.intlattice", "solve_integer", "search"),
    ("exactnum", "nilspec.exactnum.intlattice", "integer_kernel", "search"),
    ("exactnum", "nilspec.exactnum.intlattice", "IntLattice.__init__", "verdicts"),
    ("exactnum", "nilspec.exactnum.qforms", "enumerate_on_shell", "verdicts"),
]

