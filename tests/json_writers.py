"""JSON writers for the formats the package reads but never writes.

``algebra_json``, ``metric_json`` and ``lattice_json`` are the inverses of
``NilLieAlgebra.from_json``, ``Metric.from_json`` and
``LatticeSpec.from_json``: the bundled files round-trip through them bit for
bit.  ``write_files_input`` is the one writer of ``certify --files`` input:
it writes a bundled pair's algebra, metric, lattices and witness to a
directory and returns the matching command-line arguments.
"""

import json
from fractions import Fraction

from nilspec.exactnum import rat_to_str


def algebra_json(algebra) -> dict:
    """The algebra's file form: its nonzero structure constants, grouped by (i, j) as given."""
    entries, den = algebra.structure_tensor()
    out = []
    for i, j, k, c in entries:
        if not out or out[-1][:2] != [i, j]:
            out.append([i, j, []])
        out[-1][2].append([k, rat_to_str(Fraction(c, den))])
    return {"dim": algebra.dim, "names": algebra.names, "brackets": out}


def metric_json(metric, algebra_ref: str) -> dict:
    return {
        "algebra_ref": algebra_ref,
        "orthonormal_columns": [[rat_to_str(x) for x in c] for c in metric.columns],
    }


def lattice_json(spec, algebra_ref: str) -> dict:
    return {
        "algebra_ref": algebra_ref,
        "generators": [[rat_to_str(x) for x in g] for g in spec.generators],
    }


def write_files_input(directory, record) -> list:
    """Write the record's pair as alg, met, l1, l2 and w JSON files under directory.

    Returns ``["--files", ALGEBRA, METRIC, LAT1, LAT2, "--witness", WITNESS]``;
    the witness is the record's quotient witness, the one both certifiers read.
    """
    ref = f"dim{record.algebra.dim}"
    data = {
        "alg": algebra_json(record.algebra),
        "met": metric_json(record.metric, ref),
        "l1": lattice_json(record.spec1, ref),
        "l2": lattice_json(record.spec2, ref),
        "w": record.quotient_witness.to_json(),
    }
    paths = {}
    for key, value in data.items():
        paths[key] = directory / f"{key}.json"
        paths[key].write_text(json.dumps(value))
    return ["--files", *(str(paths[k]) for k in ("alg", "met", "l1", "l2")), "--witness", str(paths["w"])]
