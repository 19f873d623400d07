"""Bundled example pairs: algebras, lattices, metrics, witnesses, targets.

Five pairs ship as JSON under ``nilspec/data`` (override the directory with
the ``NILSPEC_DATA`` environment variable).  ``load_lattices`` parses and
validates an example's algebra and its two lattices alone, which is all the
isomorphism search reads; ``load`` returns the fully validated record, a
``repspec.ExampleRecord`` (a ``repspec.Pair`` that also carries the
example's witnesses and targets); ``table_one`` recomputes the comparison
table from scratch.  The metric, sector and one-form modules are imported
only by the functions that build or use them.
"""

from __future__ import annotations

import json
import os

from .exactnum import rat_from_str
from .isosearch import SearchBudget, SearchSpaceExceeded, bounded_lattice_isomorphism_search
from .lattices import LatticeSpec, maps_onto
from .liealg import NilLieAlgebra, Subspace

EXAMPLE_IDS = ("I", "II", "III", "IV", "V")


def _data_text(name: str) -> str:
    folder = os.environ.get("NILSPEC_DATA") or os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(folder, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_matrix(rows):
    return [[rat_from_str(x) for x in row] for row in rows]


def parse_algebra(data: dict) -> NilLieAlgebra:
    """The algebra in data, or a ValueError naming the Jacobi or nilpotency check it fails."""
    algebra = NilLieAlgebra.from_json(data)
    report = algebra.validate()
    if not report.jacobi_ok:
        raise ValueError(f"Jacobi violation at basis triple {report.jacobi_violations[0]}")
    if not report.nilpotent:
        raise ValueError("lower central series does not terminate")
    return algebra


def parse_witness(data: dict):
    from .repspec import Witness

    if data["kind"] == "composite":
        return Witness(
            kind="composite",
            factors=[parse_witness(f) for f in data["factors"]],
            name=data.get("name", ""),
        )
    return Witness(
        kind=data["kind"], matrix=_parse_matrix(data["matrix"]), name=data.get("name", "")
    )


def _read_example(example_id: str):
    """(data, algebra, spec1, spec2): an example's JSON with its algebra and lattices validated."""
    if example_id not in EXAMPLE_IDS:
        raise KeyError(f"unknown example id: {example_id!r}")
    algebras = json.loads(_data_text("algebras.json"))
    data = json.loads(_data_text(f"example_{example_id}.json"))
    algebra = parse_algebra(algebras[data["algebra_ref"]])
    spec1 = LatticeSpec.from_json(data["lattices"][0], algebra)
    spec2 = LatticeSpec.from_json(data["lattices"][1], algebra)
    return data, algebra, spec1, spec2


def load_lattices(example_id: str) -> tuple:
    """(algebra, spec1, spec2) of one bundled example, without the rest of its record."""
    return _read_example(example_id)[1:]


_CACHE: dict = {}


def load(example_id: str):
    """Load and validate one bundled example pair as a ``repspec.ExampleRecord``."""
    if example_id in _CACHE:
        return _CACHE[example_id]
    from .geometry import Metric
    from .oneform import Candidate
    from .repspec import ExampleRecord, SectorFlag

    data, algebra, spec1, spec2 = _read_example(example_id)
    metric = Metric.from_json(data["metric"], algebra)
    chain = [
        Subspace(algebra.dim, _parse_matrix(vectors))
        for vectors in data["sector_chain"]
    ]
    flag = SectorFlag(chain=chain, labels=list(data["sector_labels"]))
    record = ExampleRecord(
        name=example_id,
        algebra=algebra,
        metric=metric,
        spec1=spec1,
        spec2=spec2,
        quotient_witness=parse_witness(data["quotient_witness"]),
        rep_equivalent_witness=(
            parse_witness(data["rep_equivalent_witness"])
            if data.get("rep_equivalent_witness")
            else None
        ),
        sector_flag=flag,
        sector_modes=dict(data["sector_modes"]),
        pairing_map=_parse_matrix(data["pairing_map"]) if data.get("pairing_map") else None,
        iso_witness=_parse_matrix(data["iso_witness"]) if data.get("iso_witness") else None,
        eigen_candidate=(
            Candidate.from_json(data["eigen_candidate"]) if data.get("eigen_candidate") else None
        ),
        s2_target=rat_from_str(data["s2_target"]) if data.get("s2_target") else None,
    )
    _CACHE[example_id] = record
    return record


def table_one(ids, seed: int) -> list:
    """Recompute the comparison table for the requested examples.

    Columns: isospectral (certificate), representation equivalence
    (certificate or constructive refutation), same one-form spectrum,
    isomorphic fundamental groups (verified witness when bundled, otherwise
    a bounded search, labeled as evidence only), and the out-of-scope
    length-spectrum columns.  Sampled checks use ``seed`` and the default counts.
    """
    from .oneform import distinguish_pair
    from .repspec import certify_isospectral

    rows = []
    for example_id in ids:
        record = load(example_id)
        iso_cert = certify_isospectral(record, record.quotient_witness, seed=seed)
        # one_form_isospectral is distinguish_pair's verdict exactly when the
        # pair is certified representation equivalent.
        verdict = distinguish_pair(record, seed=seed)["verdict"]
        rep_equivalent = verdict == "one_form_isospectral"
        if rep_equivalent:
            one_form = "equal (representation equivalent)"
        elif verdict == "not_one_form_isospectral":
            one_form = "distinct (one-form spectra differ)"
        else:
            one_form = verdict
        if record.iso_witness is not None:
            ok = record.algebra.is_automorphism(record.iso_witness) and maps_onto(
                record.iso_witness, record.spec1, record.spec2
            )
            isomorphic = "yes (verified witness)" if ok else "witness failed"
        else:
            budget = SearchBudget(bound=1, node_ceiling=8000)
            try:
                outcome = bounded_lattice_isomorphism_search(
                    record.algebra, record.spec1, record.spec2, budget
                )
            except SearchSpaceExceeded:
                outcome = None
            if outcome is None:
                isomorphic = "none found (search truncated at ceiling; evidence only)"
            elif outcome.found is not None:
                isomorphic = "yes (found by search)"
            else:
                isomorphic = f"no isomorphism within bound {budget.bound} (evidence, not proof)"
        rows.append(
            {
                "example": example_id,
                "isospectral": "yes (certified)" if iso_cert.ok else f"FAILED: {iso_cert.failed_check}",
                "rep_equivalent": "yes (certified)" if rep_equivalent else "no (refuted)",
                "same_one_form_spectrum": one_form,
                "isomorphic_fundamental_groups": isomorphic,
                "same_length_spectrum": "out of scope",
                "same_marked_length_spectrum": "out of scope",
            }
        )
    return rows
