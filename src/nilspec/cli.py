"""Command-line interface.

Subcommands: validate, certify, multiplicities, distinguish, table1,
search-iso.  Exit code 0 on success, 1 on a valid-but-negative verdict
(for example "not representation equivalent"), 2 on input errors, 3 when
search-iso hits its node ceiling before a verdict, and 4 when an internal
invariant fails (an exact division with a remainder, a failed consistency
check) or any other exception escapes: that is a bug or corrupt bundled
data, never a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exactnum import IntLattice
from .exactnum.matrix import mat_vec
from .exactnum.scalars import rat_from_str, rat_to_str
from .isosearch import (
    SearchBudget,
    SearchOutcome,
    SearchSpaceExceeded,
    bounded_lattice_isomorphism_search,
)
from .lattices import LatticeSpec
from .liealg import CERTIFY_SAMPLES, DEFAULT_SEED, SECTOR_SAMPLES, NilLieAlgebra
from .registry import EXAMPLE_IDS, load, load_lattices, parse_algebra, parse_witness, table_one


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


# What the constructors raise on a malformed or inconsistent user file.
_BAD_FILE = (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError)


def _parse_file(path: str, parse, *args):
    """parse(data, *args) on the JSON in path; its complaints are input errors."""
    data = _read_json(path)
    try:
        return parse(data, *args)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except _BAD_FILE as exc:
        raise InputError(f"{path}: {exc}") from exc


def _check_id(example_id: str) -> str:
    # Only the id is user input; a bundled file that fails to load is an internal error.
    if example_id not in EXAMPLE_IDS:
        raise InputError(f"unknown example id: {example_id!r}")
    return example_id


def _load_record(example_id: str):
    return load(_check_id(example_id))


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    algebra = _parse_file(args.target, NilLieAlgebra.from_json)
    try:
        report = algebra.validate()
    except _BAD_FILE as exc:
        raise InputError(f"{args.target}: {exc}") from exc
    payload = {
        "jacobi_ok": report.jacobi_ok,
        "jacobi_violations": report.jacobi_violations,
        "nilpotent": report.nilpotent,
        "step": report.step,
    }
    lines = []
    if report.jacobi_ok and report.nilpotent:
        lines.append(f"ok: nilpotent of step {report.step}, dim {algebra.dim}")
        series = [s.dim for s in report.series]
        lines.append(f"lower central series dims: {series}")
        _emit(args, payload, lines)
        return 0
    for triple in report.jacobi_violations:
        lines.append(f"Jacobi violation at basis triple {triple}")
    if not report.nilpotent:
        lines.append("lower central series does not terminate")
    _emit(args, payload, lines)
    return 2


def _pair_from_files(args):
    """The pair and optional witness named by --files and --witness."""
    from .geometry import Metric
    from .repspec import Pair

    alg_path, metric_path, path1, path2 = args.files
    alg = _parse_file(alg_path, parse_algebra)
    metric = _parse_file(metric_path, Metric.from_json, alg)
    spec1 = _parse_file(path1, LatticeSpec.from_json, alg)
    spec2 = _parse_file(path2, LatticeSpec.from_json, alg)
    witness = _parse_file(args.witness, parse_witness) if args.witness else None
    pair = Pair("files", alg, metric, spec1, spec2)
    try:
        # What the certifiers project; a lattice they cannot project is bad input.
        qdim = pair.quotient_data()[0].dim
        spec1.center_intersection()
        spec2.center_intersection()
    except _BAD_FILE as exc:
        raise InputError(f"cannot project the lattices of {path1} and {path2}: {exc}") from exc
    for atom in witness.atoms() if witness else ():
        if len(atom.matrix) != qdim or any(len(row) != qdim for row in atom.matrix):
            raise InputError(
                f"{args.witness}: witness {atom.name or atom.kind!r} is not a "
                f"{qdim}x{qdim} matrix on the quotient algebra"
            )
    return pair, witness


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{flag} must be at least 1, got {value}")


def cmd_certify(args) -> int:
    from .repspec import certify_isospectral, certify_rep_equivalent

    # Every input names one pair; nothing given is dropped unread.
    if args.witness and not args.files:
        raise InputError("--witness is read only with --files")
    if args.target and args.files:
        raise InputError(f"give an example id or --files, not both (got {args.target!r})")
    if args.target and args.replay:
        raise InputError(f"--replay reads the pair from the certificate; drop {args.target!r}")
    if not (args.target or args.files or args.replay):
        raise InputError("certify needs an example id, --files or --replay")
    saved = _read_json(args.replay) if args.replay else None
    if args.replay and (not isinstance(saved, dict) or not {"pair", "kind"} <= saved.keys()):
        raise InputError(f"{args.replay} is not a certificate: needs 'pair' and 'kind'")
    if args.files:
        pair, iso_witness = _pair_from_files(args)
        rep_witness = iso_witness
    elif args.replay and saved["pair"] == "files":
        raise InputError(
            "certificate was made with --files; replay it with the same "
            "--files ALGEBRA METRIC LAT1 LAT2 (and --witness)"
        )
    else:
        pair = _load_record(saved["pair"] if args.replay else args.target)
        iso_witness, rep_witness = pair.quotient_witness, pair.rep_equivalent_witness
    if args.replay:
        if saved["kind"] == "isospectral":
            if iso_witness is None:
                raise InputError("replaying an isospectral certificate needs --witness")
            certify, witness = certify_isospectral, iso_witness
        else:
            certify, witness = certify_rep_equivalent, rep_witness
        fresh = certify(pair, witness, n_samples=args.samples, seed=args.seed)
        same = fresh.to_json() == saved
        payload = {"replay_matches": same, "certificate": fresh.to_json()}
        _emit(args, payload, [f"replay: {'identical verdicts' if same else 'MISMATCH'}"])
        return 0 if same else 1

    iso_cert = (
        certify_isospectral(pair, iso_witness, n_samples=args.samples, seed=args.seed)
        if iso_witness
        else None
    )
    cor = certify_rep_equivalent(pair, rep_witness, n_samples=args.samples, seed=args.seed)
    payload = {
        "isospectral": iso_cert.to_json() if iso_cert else None,
        "rep_equivalence": cor.to_json(),
    }
    lines = []
    if iso_cert:
        lines.append(
            f"isospectral: {'yes (certified)' if iso_cert.ok else 'NOT CERTIFIED: ' + str(iso_cert.failed_check)}"
        )
    rep_yes = cor.kind == "rep_equivalent" and cor.ok
    if rep_yes:
        lines.append("representation equivalent: yes (certified)")
    elif cor.kind == "not_rep_equivalent":
        tau = cor.checked_claims[0].get("details", {}).get("tau")
        lines.append(f"representation equivalent: no (occurrence mismatch at tau = {tau})")
    else:
        lines.append("representation equivalence: undetermined")
    _emit(args, payload, lines)
    if iso_cert and not iso_cert.ok:
        return 1
    return 0 if rep_yes else 1


def _multiplicity_row(records) -> dict:
    r1, r2 = (r.to_json() for r in records)
    return {"tau": r1["tau"], "lattice1": r1, "lattice2": r2}


def cmd_multiplicities(args) -> int:
    from .oneform import enumerate_shell
    from .repspec import central_dual_generator

    _require_positive("--range", args.range)
    record = _load_record(args.target)
    flag = record.sector_flag
    if args.sector not in flag.labels:
        raise InputError(
            f"unknown sector {args.sector!r}; choose from {flag.labels}"
        )
    idx = flag.labels.index(args.sector)
    cs = [c for c in range(-args.range, args.range + 1) if c]
    if idx == 0:
        gen = central_dual_generator(record.spec1)
        rows = [_multiplicity_row(record.moore_wolf(tuple(Fraction(c) * t for t in gen))) for c in cs]
    elif idx < len(flag.chain):
        proj = record.quotient_data()[1]
        # Dual direction of the sector's own central coordinate.
        new = next(b for b in flag.chain[idx].basis() if not flag.chain[idx - 1].contains(b))
        support = [x != 0 for x in mat_vec(proj, new)]
        rows = [
            _multiplicity_row(record.pesce(tuple(Fraction(c if s else 0) for s in support)))
            for c in cs
        ]
    else:
        rows = []
        for side, spec in (("lattice1", record.spec1), ("lattice2", record.spec2)):
            lat = IntLattice(record.algebra.dim, spec.generators)
            shell_rows = []
            for s2 in range(1, args.range + 1):
                for tau in enumerate_shell(record.algebra, record.metric, lat, Fraction(s2)):
                    shell_rows.append([rat_to_str(t) for t in tau])
            rows.append({side: {"characters_with_integer_s2_up_to": args.range, "taus": shell_rows}})
    payload = {"example": args.target, "sector": args.sector, "rows": rows}
    lines = [f"example {args.target}, sector {args.sector}:"]
    for row in rows:
        lines.append(json.dumps(row))
    _emit(args, payload, lines)
    return 0


def cmd_distinguish(args) -> int:
    from .oneform import distinguish_pair

    _require_positive("--samples-small", args.samples_small)
    record = _load_record(args.target)
    report = distinguish_pair(record, n_samples=args.samples_small, seed=args.seed)
    lines = []
    if report["verdict"] == "one_form_isospectral":
        lines.append(f"{args.target}: one-form spectra equal ({report['reason']})")
    elif report["verdict"] == "not_one_form_isospectral":
        m = report["character_multiplicities"]
        lines.append(
            f"{args.target}: candidate eigenvalue multiplicity "
            f"{m['lattice1']} vs {m['lattice2']} -> not isospectral on one-forms"
        )
    else:
        lines.append(f"{args.target}: inconclusive")
    if args.cross_check:
        check = report["numeric_check"] = _cross_check(record, report)
        lines.append(f"exact cross-check: {check['ok'] if check['count'] else 'nothing checked'}")
    _emit(args, report, lines)
    return 0


def _cross_check(record, report) -> dict:
    """Each row's ``det_zero`` against ``det_vanishes_by_norm``, an elimination of its own.

    ``ok`` is None when no row was checked, as on a pair without a candidate eigenvalue.
    """
    from .oneform import assemble_E, det_vanishes_by_norm

    lam, algebra, metric = record.eigen_candidate, record.algebra, record.metric
    agrees = [
        det_vanishes_by_norm(assemble_E(algebra, metric, tuple(map(rat_from_str, row["tau"]))), lam)
        == row["det_zero"]
        for rows in report.get("per_tau", {}).values()
        for row in rows
    ]
    return {"ok": all(agrees) if agrees else None, "count": len(agrees)}


def cmd_table1(args) -> int:
    for example_id in args.ids:
        _load_record(example_id)
    rows = table_one(args.ids or EXAMPLE_IDS, args.seed)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    cols = [
        ("example", 7),
        ("isospectral", 17),
        ("rep_equivalent", 15),
        ("same_one_form_spectrum", 34),
        ("isomorphic_fundamental_groups", 44),
    ]
    header = "  ".join(name.ljust(w) for name, w in cols)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[name]).ljust(w) for name, w in cols))
    print("length spectrum columns: out of scope")
    return 0


def cmd_search_iso(args) -> int:
    _require_positive("--bound", args.bound)
    algebra, spec1, spec2 = load_lattices(_check_id(args.target))
    budget = SearchBudget(bound=args.bound)
    truncated = False
    try:
        outcome = bounded_lattice_isomorphism_search(algebra, spec1, spec2, budget)
    except SearchSpaceExceeded as exc:
        outcome = SearchOutcome(None, False, budget.node_ceiling, str(exc))
        truncated = True
    payload = {
        "example": args.target,
        "bound": args.bound,
        "found": [[rat_to_str(x) for x in row] for row in outcome.found]
        if outcome.found
        else None,
        "exhausted": outcome.exhausted,
        "nodes": outcome.nodes,
        "note": outcome.note,
        "disclaimer": "bounded search: no-hit is evidence, not a nonisomorphism proof",
    }
    if truncated:
        payload["truncated"] = True
        _emit(args, payload, [f"{args.target}: truncated at {budget.node_ceiling} nodes, no verdict"])
        return 3
    if outcome.found is not None:
        _emit(args, payload, [f"{args.target}: isomorphism found ({outcome.nodes} nodes)"])
        return 0
    _emit(
        args,
        payload,
        [
            f"{args.target}: no isomorphism within bound {args.bound} (each generator "
            f"v_i sent into the log-cover lattice, L-inf box of radius {args.bound}*|v_i|_1; "
            "evidence, not proof)"
        ],
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilspec",
        description="Exact isospectrality certification for bundled nilmanifold pairs",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    parser.add_argument("--samples", type=int, default=CERTIFY_SAMPLES, help="sample count for certify's sampled checks, at least 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra definition file")
    p.add_argument("target")

    p = sub.add_parser("certify", help="isospectrality / representation equivalence certificates")
    p.add_argument("target", nargs="?", help="example id")
    p.add_argument("--files", nargs=4, metavar=("ALGEBRA", "METRIC", "LAT1", "LAT2"))
    p.add_argument("--witness", help="witness JSON file (with --files)")
    p.add_argument(
        "--replay", help="re-verify a stored certificate JSON (with --files if it was made from files)"
    )

    p = sub.add_parser("multiplicities", help="occurrence and multiplicity tables")
    p.add_argument("target")
    p.add_argument("--sector", required=True)
    p.add_argument("--range", type=int, default=3, help="how many tau values or shells, at least 1")

    p = sub.add_parser("distinguish", help="one-form spectrum comparison")
    p.add_argument("target")
    p.add_argument("--cross-check", action="store_true", help="recheck each det_zero by norms over Q")
    p.add_argument("--samples-small", type=int, default=SECTOR_SAMPLES, help="sector sampling size, at least 1")

    p = sub.add_parser("table1", help="recompute the comparison table")
    p.add_argument("ids", nargs="*", help="example ids (default: all)")

    p = sub.add_parser("search-iso", help="bounded lattice isomorphism search")
    p.add_argument("target")
    p.add_argument("--bound", type=int, default=SearchBudget().bound, help="box radius factor, at least 1")
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "certify": cmd_certify,
        "multiplicities": cmd_multiplicities,
        "distinguish": cmd_distinguish,
        "table1": cmd_table1,
        "search-iso": cmd_search_iso,
    }
    try:
        _require_positive("--samples", args.samples)
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Input is checked where it is read, so anything else is a failed invariant;
        # exit 1 is a valid negative verdict, so no internal failure may reach it.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
