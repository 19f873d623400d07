import copy
import inspect
import json
import pathlib
import shutil
from fractions import Fraction

import pytest

from nilspec import cli, oneform, repspec
from nilspec.cli import run
from nilspec.isosearch import SearchSpaceExceeded
from nilspec.lattices import LatticeSpec
from nilspec.oneform import Candidate
from nilspec.registry import EXAMPLE_IDS, load

from json_writers import algebra_json, write_files_input
from oneform_references import pmul, poly


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_good_algebra(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_json(load("I").algebra)))
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0
    assert "step 3" in out


def test_validate_jacobi_violation(tmp_path, capsys):
    bad = {
        "dim": 3,
        "names": ["a", "b", "c"],
        "brackets": [[0, 1, [[2, "1"]]], [0, 2, [[0, "1"]]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 2
    assert "(0, 1, 2)" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "validate", str(path))
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize(
    "brackets, message",
    [
        # -1 used to be read as the last basis vector, 3 as an IndexError.
        ([[0, 1, [[-1, "1"]]]], "bracket (0, 1) has a term at index -1, outside 0..2"),
        ([[0, 1, [[3, "1"]]]], "bracket (0, 1) has a term at index 3, outside 0..2"),
        # The second listing used to replace the first silently.
        ([[0, 1, [[2, "1"]]], [0, 1, [[2, "2"]]]], "bracket (0, 1) is listed twice"),
    ],
    ids=["negative_index", "index_past_dim", "repeated_pair"],
)
def test_validate_rejects_misreadable_brackets(brackets, message, tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3, "names": ["a", "b", "c"], "brackets": brackets}))
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "alg.json" in err and message in err


def test_certify_positive_and_negative(capsys):
    code, out, _ = invoke(capsys, "certify", "I")
    assert code == 0
    assert "representation equivalent: yes" in out
    code, out, _ = invoke(capsys, "certify", "IV")
    assert code == 1
    assert "occurrence mismatch" in out


def test_certify_unknown_example(capsys):
    code, _, err = invoke(capsys, "certify", "VII")
    assert code == 2
    assert "unknown example" in err


def test_certify_from_files(tmp_path, capsys):
    code, out, _ = invoke(capsys, "certify", *write_files_input(tmp_path, load("II")))
    assert code == 0
    assert "representation equivalent: yes" in out


def test_certify_replay_of_files_certificate(tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))
    code, out, _ = invoke(capsys, "--json", "certify", *files)
    assert code == 0
    payload = json.loads(out)
    for kind in ("isospectral", "rep_equivalence"):
        assert payload[kind]["pair"] == "files"
        cert_path = tmp_path / f"{kind}.json"
        cert_path.write_text(json.dumps(payload[kind]))
        code, out, _ = invoke(capsys, "certify", "--replay", str(cert_path), *files)
        assert code == 0
        assert "identical verdicts" in out
        code, _, err = invoke(capsys, "certify", "--replay", str(cert_path))
        assert code == 2
        assert "--files" in err


def test_bad_user_file_is_input_error(tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))
    lattice = tmp_path / "l1.json"
    data = json.loads(lattice.read_text())
    data["generators"] = data["generators"][:-1]
    lattice.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "certify", *files)
    assert code == 2
    assert out == ""
    assert "l1.json" in err and "need one generator per dimension" in err


def test_validate_names_a_missing_key(tmp_path, capsys):
    data = algebra_json(load("I").algebra)
    del data["dim"]
    path = tmp_path / "bad_alg.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: missing key 'dim'\n"


@pytest.mark.parametrize(
    "name, key", [("alg", "dim"), ("met", "orthonormal_columns"), ("l2", "generators"), ("w", "kind")]
)
def test_certify_files_names_a_missing_key(name, key, tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / f"{name}.json"
    data = json.loads(path.read_text())
    del data[key]
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: missing key {key!r}\n"


UNIT4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


@pytest.mark.parametrize(
    "brackets, generators, message",
    [
        # An adapted basis whose projection e1, e2, e3 to the Heisenberg
        # quotient is not closed: cbh(e1, e2) = e1 + e2 + e3/2.
        (
            [[0, 1, [[2, "1"]]], [0, 2, [[3, "1"]]]],
            UNIT4[:3] + [["0", "0", "0", "1/2"]],
            "projected span is not closed under the group law",
        ),
        # The central e4 comes first, so no generator suffix spans the center.
        (
            [[0, 1, [[2, "1"]]]],
            UNIT4[3:] + UNIT4[:3],
            "central generator suffix does not span the center",
        ),
    ],
)
def test_unprojectable_user_lattices_are_input_errors(tmp_path, capsys, brackets, generators, message):
    algebra = {"dim": 4, "names": ["e1", "e2", "e3", "e4"], "brackets": brackets}
    metric = {"algebra_ref": "a", "orthonormal_columns": UNIT4}
    lattice = {"algebra_ref": "a", "generators": generators}
    paths = []
    for key, value in (("alg", algebra), ("met", metric), ("l1", lattice), ("l2", lattice)):
        paths.append(tmp_path / f"{key}.json")
        paths[-1].write_text(json.dumps(value))
    code, out, err = invoke(capsys, "certify", "--files", *map(str, paths))
    assert code == 2
    assert out == ""
    assert "internal error" not in err and message in err


def test_certify_files_refuses_an_algebra_that_is_not_a_lie_algebra(tmp_path, capsys):
    # [[e1, e2], e3] + [[e2, e3], e1] + [[e3, e1], e2] = 12 [e4, e3] = 144 e6, not 0.
    unit = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    algebra = {
        "dim": 6,
        "names": ["e1", "e2", "e3", "e4", "e5", "e6"],
        "brackets": [[0, 1, [[3, "12"]]], [1, 2, [[4, "12"]]], [2, 3, [[5, "-12"]]]],
    }
    metric = {"algebra_ref": "a", "orthonormal_columns": unit}
    lattice = {"algebra_ref": "a", "generators": unit}
    witness = {"kind": "isometry", "name": "id", "matrix": [row[:5] for row in unit[:5]]}
    paths = {}
    for key, value in (("alg", algebra), ("met", metric), ("l1", lattice), ("l2", lattice), ("w", witness)):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(value))
    files = [str(paths[k]) for k in ("alg", "met", "l1", "l2")]
    code, out, err = invoke(capsys, "certify", "--files", *files, "--witness", str(paths["w"]))
    assert code == 2
    assert out == ""
    assert "alg.json" in err and "Jacobi violation at basis triple (0, 1, 2)" in err


@pytest.mark.parametrize("pi", ["nan", "inf"])
def test_non_finite_pi_is_input_error(pi, capsys):
    # The exact cross-check reads no value of pi, so any --pi is an unknown argument.
    with pytest.raises(SystemExit) as exc:
        run(["distinguish", "IV", "--pi", pi])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --pi" in captured.err


def test_pi_is_no_longer_an_option(capsys):
    # The exact cross-check reads no value of pi.
    with pytest.raises(SystemExit) as exc:
        run(["distinguish", "IV", "--pi", "3.141592653589793"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pi" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_multiplicities_rejects_range_below_one(count, capsys):
    code, out, err = invoke(capsys, "multiplicities", "III", "--sector", "IV", "--range", count)
    assert code == 2
    assert out == ""
    assert f"--range must be at least 1, got {count}" in err


def test_replay_of_a_non_certificate_is_input_error(tmp_path, capsys):
    path = tmp_path / "cert.json"
    for saved in ({"kind": "isospectral"}, None, []):
        path.write_text(json.dumps(saved))
        code, _, err = invoke(capsys, "certify", "--replay", str(path))
        assert code == 2, saved
        assert "not a certificate" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        # --witness is read only with --files, so a missing file went unnoticed.
        (["certify", "II", "--witness", "no-such-witness.json"], "--witness"),
        (["certify", "--replay", "{cert}", "--witness", "no-such-witness.json"], "--witness"),
        (["certify", "I", "{files}"], "--files"),
        (["certify", "I", "--replay", "{cert}"], "--replay"),
        (["certify"], "--files"),
    ],
    ids=["witness-without-files", "witness-with-bundled-replay", "target-and-files",
         "target-and-replay", "no-pair"],
)
def test_certify_inputs_it_would_not_read_are_input_errors(argv, flag, tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))[:5]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"pair": "II", "kind": "rep_equivalent"}))
    expanded = []
    for arg in argv:
        expanded += files if arg == "{files}" else [arg.format(cert=cert)]
    code, out, err = invoke(capsys, *expanded)
    assert code == 2
    assert out == ""
    assert flag in err and "internal error" not in err


def test_internal_failure_exits_4(monkeypatch, capsys):
    def inexact(matrix, lam):
        raise ArithmeticError("inexact division in det_at")

    monkeypatch.setattr(oneform, "det_at", inexact)
    code, out, err = invoke(capsys, "--json", "distinguish", "III")
    assert code == 4
    assert out == ""
    assert err == "internal error: ArithmeticError: inexact division in det_at\n"


@pytest.mark.parametrize("command, target", [("distinguish", "distinguish_pair"), ("certify", "certify_rep_equivalent")])
@pytest.mark.parametrize("error", [TypeError, IndexError, AttributeError])
def test_any_unexpected_exception_exits_4(monkeypatch, capsys, command, target, error):
    # Exit 1 is a valid negative verdict, so no internal failure may end there.
    # The CLI imports each certifier from its defining module when it runs.
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(oneform if command == "distinguish" else repspec, target, fail)
    code, out, err = invoke(capsys, "--json", command, "III")
    assert code == 4
    assert out == ""
    assert err == f"internal error: {error.__name__}: injected\n"


def test_nullity_determinant_disagreement_exits_4(monkeypatch, capsys):
    def nonzero(matrix, lam):
        return lam, False

    monkeypatch.setattr(oneform, "det_at", nonzero)
    code, out, err = invoke(capsys, "--json", "distinguish", "III")
    assert code == 4
    assert out == ""
    assert err == "internal error: AssertionError: positive nullity at a nonzero determinant\n"


def _corrupt_example_v(tmp_path, monkeypatch, corrupt):
    """Point NILSPEC_DATA at a copy of the bundled data with example V edited by corrupt."""
    from nilspec import registry

    data_dir = pathlib.Path(registry.__file__).resolve().parent / "data"
    for path in data_dir.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    example = json.loads((tmp_path / "example_V.json").read_text(encoding="utf-8"))
    corrupt(example)
    (tmp_path / "example_V.json").write_text(json.dumps(example), encoding="utf-8")
    monkeypatch.setenv("NILSPEC_DATA", str(tmp_path))
    monkeypatch.setattr(registry, "_CACHE", {})


def test_corrupt_bundled_candidate_exits_4(tmp_path, monkeypatch, capsys):
    # Bundled data are trusted, so a candidate whose modulus is a square, p^2,
    # is corrupt data: an internal error, never an input error or a verdict.
    def square_modulus(example):
        example["eigen_candidate"]["q_coeffs"] = [["0", "0"], ["0", "0"], ["1", "0"]]

    _corrupt_example_v(tmp_path, monkeypatch, square_modulus)
    code, out, err = invoke(capsys, "distinguish", "V")
    assert (code, out, err) == (4, "", "internal error: ValueError: modulus must be squarefree\n")


def test_bundled_data_missing_a_key_exits_4(tmp_path, monkeypatch, capsys):
    # Only the example id is user input; a KeyError from reading a known
    # example's file is corrupt data, like any other load failure.
    _corrupt_example_v(tmp_path, monkeypatch, lambda example: example.pop("metric"))
    code, out, err = invoke(capsys, "certify", "V")
    assert (code, out, err) == (4, "", "internal error: KeyError: 'metric'\n")


def test_search_iso_reads_only_the_algebra_and_lattices(tmp_path, monkeypatch, capsys):
    # search-iso parses the algebra and the two lattices alone, so a corrupt
    # metric is reported by the commands that read it, not by the search.
    _corrupt_example_v(tmp_path, monkeypatch, lambda example: example.pop("metric"))
    code, out, err = invoke(capsys, "--json", "search-iso", "V", "--bound", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["found"] is not None
    code, out, err = invoke(capsys, "certify", "V")
    assert (code, out, err) == (4, "", "internal error: KeyError: 'metric'\n")


def test_replay_reads_the_certificate_pair_whole(tmp_path, capsys):
    # No example id has a dot, so "III.1" names no example and is not III.
    code, out, _ = invoke(capsys, "--json", "certify", "III")
    cert = json.loads(out)["rep_equivalence"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(dict(cert, pair="III.1")))
    code, out, err = invoke(capsys, "certify", "--replay", str(cert_path))
    assert (code, out, err) == (2, "", "error: unknown example id: 'III.1'\n")


def test_certify_replay_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--json", "certify", "II")
    assert code == 0
    payload = json.loads(out)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload["rep_equivalence"]))
    code, out, _ = invoke(capsys, "certify", "--replay", str(cert_path))
    assert code == 0
    assert "identical verdicts" in out


@pytest.mark.parametrize("kind", ["isospectral", "rep_equivalence"])
def test_certify_replay_reads_samples(kind, tmp_path, capsys):
    code, out, _ = invoke(capsys, "--json", "--samples", "50", "certify", "I")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)[kind]))
    replay = ["certify", "--replay", str(cert_path)]
    code, out, _ = invoke(capsys, "--json", "--samples", "50", *replay)
    assert code == 0
    assert json.loads(out)["replay_matches"] is True
    # Replayed with the default 200 samples, the sampled counts differ.
    code, out, _ = invoke(capsys, "--json", *replay)
    assert code == 1
    assert json.loads(out)["replay_matches"] is False


def test_distinguish_examples(capsys):
    code, out, _ = invoke(capsys, "distinguish", "IV")
    assert code == 0
    assert "2 vs 0" in out
    code, out, _ = invoke(capsys, "distinguish", "I")
    assert code == 0
    assert "one-form spectra equal" in out


def test_distinguish_json_schema_and_determinism(capsys):
    code, out1, _ = invoke(capsys, "--json", "distinguish", "IV")
    assert code == 0
    code, out2, _ = invoke(capsys, "--json", "distinguish", "IV")
    assert out1 == out2  # byte-identical with the fixed default seed
    report = json.loads(out1)
    assert report["example"] == "IV"
    assert set(report["lambda"]) == {"a_coeffs", "b_coeffs", "q_coeffs"}
    assert report["verdict"] == "not_one_form_isospectral"
    for side in ("lattice1", "lattice2"):
        for row in report["per_tau"][side]:
            assert set(row) == {"tau", "det_zero", "nullity"}


def test_distinguish_numeric_oracle(capsys):
    code, out, _ = invoke(capsys, "--json", "distinguish", "IV", "--cross-check")
    assert code == 0
    report = json.loads(out)
    assert report["numeric_check"] == {"ok": True, "count": 4}
    code, out, _ = invoke(capsys, "distinguish", "IV", "--cross-check")
    assert code == 0
    assert out.splitlines()[-1] == "exact cross-check: True"


def test_cross_check_fails_on_a_corrupted_matrix(monkeypatch, capsys):
    # Shifting the whole diagonal of E by 1 / den moves every eigenvalue off the
    # candidate; one perturbed entry can leave the determinant zero.
    assemble = oneform.assemble_E

    def shifted(algebra, metric, tau):
        e = assemble(algebra, metric, tau)
        for j, row in enumerate(e.rows):
            (re, im), *rest = row[j]
            row[j] = [(re + 1, im), *rest]
        return e

    # The report is made on the true matrices; only the cross-check, which
    # runs after it, reads the shifted ones.
    distinguish = oneform.distinguish_pair

    def then_shift(*args, **kwargs):
        report = distinguish(*args, **kwargs)
        monkeypatch.setattr(oneform, "assemble_E", shifted)
        return report

    monkeypatch.setattr(oneform, "distinguish_pair", then_shift)
    code, out, _ = invoke(capsys, "--json", "distinguish", "III", "--cross-check")
    assert code == 0
    report = json.loads(out)
    assert any(row["det_zero"] for rows in report["per_tau"].values() for row in rows)
    assert report["numeric_check"] == {"ok": False, "count": 8}


def test_numeric_oracle_reads_the_candidate_coefficient():
    # V's candidate q + s with s^2 = q, written as q + 2 s' with s'^2 = q / 4.
    record = load("V")
    lam = record.eigen_candidate
    rewritten = copy.copy(record)
    rewritten.eigen_candidate = Candidate(lam.a, pmul(lam.b, poly(2)), pmul(lam.q, poly(Fraction(1, 4))))
    report = oneform.distinguish_pair(rewritten)
    assert report["per_tau"] == oneform.distinguish_pair(record)["per_tau"]
    assert cli._cross_check(rewritten, report) == {"ok": True, "count": 12}


def test_multiplicities_sector_table(capsys):
    code, out, _ = invoke(
        capsys, "--json", "multiplicities", "III", "--sector", "IV", "--range", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sector"] == "IV"
    for row in payload["rows"]:
        assert row["lattice1"]["multiplicity"] == row["lattice2"]["multiplicity"]
    code, _, err = invoke(capsys, "multiplicities", "III", "--sector", "X")
    assert code == 2


def test_search_iso_cli(capsys):
    code, out, _ = invoke(capsys, "search-iso", "II", "--bound", "4")
    assert code == 0
    assert "isomorphism found" in out
    code, out, _ = invoke(capsys, "search-iso", "IV", "--bound", "4")
    assert code == 1
    assert "evidence, not proof" in out


def test_search_iso_rejects_denoms(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search-iso", "II", "--denoms", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --denoms" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_search_iso_rejects_bound_below_one(bound, capsys):
    code, out, err = invoke(capsys, "search-iso", "IV", "--bound", bound)
    assert code == 2
    assert out == ""
    assert "--bound must be at least 1" in err


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--samples", "{}", "certify", "II"], "--samples"),
        (["--samples", "{}", "distinguish", "III"], "--samples"),
        (["distinguish", "III", "--samples-small", "{}"], "--samples-small"),
    ],
)
def test_sample_counts_below_one_are_rejected(argv, flag, count, capsys):
    code, out, err = invoke(capsys, "--json", *[a.format(count) for a in argv])
    assert code == 2
    assert out == ""
    assert f"{flag} must be at least 1, got {count}" in err


def test_search_iso_truncated_is_its_own_outcome(monkeypatch, capsys):
    def truncated(*args, **kwargs):
        raise SearchSpaceExceeded("node ceiling exceeded")

    monkeypatch.setattr(cli, "bounded_lattice_isomorphism_search", truncated)
    code, out, err = invoke(capsys, "--json", "search-iso", "IV", "--bound", "1")
    assert code == 3
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["truncated"] is True
    assert payload["found"] is None
    assert payload["exhausted"] is False
    assert payload["nodes"] == cli.SearchBudget().node_ceiling
    code, out, _ = invoke(capsys, "search-iso", "IV")
    assert code == 3
    assert "truncated" in out


def test_table1_single_row(capsys):
    code, out, _ = invoke(capsys, "--json", "table1", "IV")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["example"] == "IV"
    assert rows[0]["isospectral"] == "yes (certified)"
    assert rows[0]["rep_equivalent"] == "no (refuted)"
    assert rows[0]["same_one_form_spectrum"].startswith("distinct")
    assert "no isomorphism within bound" in rows[0]["isomorphic_fundamental_groups"]
    assert rows[0]["same_length_spectrum"] == "out of scope"


def test_table1_reads_seed(monkeypatch, capsys):
    # table1 reads --seed only; its certificate and its one-form column sample
    # as certify and distinguish do at their defaults. III samples sectors.
    defaults = cli.build_parser().parse_args(["distinguish", "III"])
    seen = []

    def spy(fn):
        signature = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((fn.__name__, bound.arguments["seed"], bound.arguments["n_samples"]))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(repspec, "certify_isospectral", spy(repspec.certify_isospectral))
    monkeypatch.setattr(oneform, "distinguish_pair", spy(oneform.distinguish_pair))
    code, _, _ = invoke(capsys, "--seed", "7", "table1", "III")
    assert code == 0
    assert seen == [
        ("certify_isospectral", 7, defaults.samples),
        ("distinguish_pair", 7, defaults.samples_small),
    ]


@pytest.mark.parametrize("example_id", ["I", "II"])
def test_numeric_oracle_on_pairs_without_a_candidate(example_id, capsys):
    code, out, err = invoke(capsys, "--json", "distinguish", example_id, "--cross-check")
    assert code == 0
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["verdict"] == "one_form_isospectral"
    assert report["numeric_check"] == {"ok": None, "count": 0}
    code, out, _ = invoke(capsys, "distinguish", example_id, "--cross-check")
    assert code == 0
    assert "nothing checked" in out and "True" not in out


def test_a_pair_without_a_candidate_is_inconclusive(monkeypatch, capsys):
    record = copy.copy(load("III"))
    record.eigen_candidate = None
    report = oneform.distinguish_pair(record)
    assert report == {"example": "III", "verdict": "inconclusive", "reason": "no eigenvalue candidate"}
    monkeypatch.setattr(cli, "load", lambda example_id: record)
    code, out, err = invoke(capsys, "--json", "distinguish", "III", "--cross-check")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**report, "numeric_check": {"ok": None, "count": 0}}


@pytest.mark.parametrize("ids", [["VI"], ["II", "VI"]])
def test_table1_rejects_unknown_ids(ids, capsys):
    code, out, err = invoke(capsys, "table1", *ids)
    assert code == 2
    assert out == ""
    assert "unknown example id: 'VI'" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["table1", "certify", "search-iso"])
def test_unknown_id_prints_the_plain_message(command, capsys):
    # The message itself, not the repr a KeyError's str() would give it.
    code, out, err = invoke(capsys, command, "VI")
    assert code == 2
    assert out == ""
    assert err == "error: unknown example id: 'VI'\n"


@pytest.mark.parametrize(
    "matrix",
    [[["1", "0"], ["0", "1"]], [["1", "0", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]],
    ids=["2x2", "ragged"],
)
def test_witness_of_the_wrong_shape_is_input_error(matrix, tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"kind": "almost_inner", "name": "bad", "matrix": matrix}))
    code, out, err = invoke(capsys, "certify", *files)
    assert code == 2
    assert out == ""
    assert "w.json" in err and "4x4" in err and "internal error" not in err


@pytest.mark.parametrize(
    "name, keys, command",
    [
        ("alg", ("brackets", 0, 2, 0, 1), "certify"),
        ("met", ("orthonormal_columns", 0, 0), "certify"),
        ("l1", ("generators", 0, 0), "certify"),
        ("w", ("matrix", 0, 0), "certify"),
        ("alg", ("brackets", 0, 2, 0, 1), "validate"),
    ],
    ids=["alg", "met", "l1", "w", "validate"],
)
def test_a_json_number_for_a_rational_is_input_error(name, keys, command, tmp_path, capsys):
    # A rational is a "p" or "p/q" string; a bare number used to exit 4 with an AttributeError.
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / f"{name}.json"
    data = json.loads(path.read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = 1
    path.write_text(json.dumps(data))
    argv = [str(path)] if command == "validate" else files
    code, out, err = invoke(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert f"{path}:" in err and '"p/q"' in err and "internal error" not in err


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"kind": "foo", "name": "w", "matrix": UNIT4}, "unknown witness kind 'foo'"),
        ({"kind": "composite", "name": "empty", "factors": []}, "'empty' has no factors"),
    ],
    ids=["unknown-kind", "composite-without-factors"],
)
def test_a_malformed_witness_is_input_error(witness, message, tmp_path, capsys):
    # An unknown kind used to read as NOT CERTIFIED (exit 1), an empty composite as exit 4.
    files = write_files_input(tmp_path, load("II"))
    (tmp_path / "w.json").write_text(json.dumps(witness))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert "w.json" in err and message in err and "internal error" not in err


def test_replay_of_a_kind_no_certifier_makes_is_input_error(tmp_path, capsys):
    # It used to replay as rep_equivalent and report a MISMATCH (exit 1).
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"pair": "I", "kind": "foo"}))
    code, out, err = invoke(capsys, "certify", "--replay", str(path))
    assert (code, out) == (2, "")
    assert "cert.json" in err and "'foo'" in err and "internal error" not in err


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_a_bundled_pair_certifies_as_its_files_export(example_id, tmp_path, capsys):
    # The export carries the pair's one witness, which both certifiers read on either path.
    files = write_files_input(tmp_path, load(example_id))
    code, out, _ = invoke(capsys, "--json", "--seed", "1", "certify", example_id)
    files_code, files_out, _ = invoke(capsys, "--json", "--seed", "1", "certify", *files)
    assert files_code == code
    exported = json.loads(files_out)
    for cert in exported.values():
        assert cert["pair"] == "files"
        cert["pair"] = example_id
    assert exported == json.loads(out)


def _rewrite(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "name, key", [("l1", "generators"), ("met", "orthonormal_columns"), ("w", "matrix")]
)
def test_a_matrix_row_written_as_one_string_is_input_error(name, key, tmp_path, capsys):
    # Each string row, "20000", used to be read digit by digit and certified.
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / f"{name}.json"
    _rewrite(path, lambda data: data.update({key: ["".join(row) for row in data[key]]}))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert f"{path}: row 0 is not a list of rationals" in err and "internal error" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        # True used to be read as dim 1 and validated as "dim True".
        (lambda data: data.update(dim=True), "dim must be an integer of at least 1, got True"),
        # The second term used to be added to the first.
        (lambda data: data["brackets"][0][2].append([3, "1"]), "bracket (0, 1) lists index 3 twice"),
        (lambda data: data.update(names=[1, 2, 3, 4, 5]), "names must be a list of strings"),
        (lambda data: data["brackets"][0].__setitem__(0, "0"), "a bracket is [i, j, terms] with int indices"),
        (lambda data: data["brackets"][0][2][0].__setitem__(0, 3.0), 'has a term that is not [k, "p/q"]'),
    ],
    ids=["bool_dim", "repeated_term", "number_names", "string_index", "float_term_index"],
)
def test_validate_rejects_an_algebra_of_the_wrong_json_types(edit, message, tmp_path, capsys):
    path = tmp_path / "alg.json"
    data = algebra_json(load("II").algebra)
    edit(data)
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert f"{path}: " in err and message in err and "internal error" not in err


def test_a_witness_name_that_is_not_a_string_is_input_error(tmp_path, capsys):
    # A list name used to be echoed into the claim labels and the certificate.
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / "w.json"
    _rewrite(path, lambda data: data.update(name=["shift"]))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert f"{path}: " in err and "kind and name are strings" in err


def test_an_abelian_files_algebra_is_refused_by_name(tmp_path, capsys):
    # It used to reach the projection and exit 2 with "list index out of range".
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / "alg.json"
    _rewrite(path, lambda data: data.update(brackets=[]))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the algebra is abelian; the certifiers need step 2 or 3\n"


@pytest.mark.parametrize("name", ["alg", "met", "l1", "w"])
def test_a_file_whose_top_level_is_not_an_object_is_input_error(name, tmp_path, capsys):
    files = write_files_input(tmp_path, load("II"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps([json.loads(path.read_text())]))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the top level is not a JSON object\n"


def test_replay_of_a_certificate_whose_pair_is_not_a_string_is_input_error(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"pair": ["II"], "kind": "rep_equivalent"}))
    code, out, err = invoke(capsys, "certify", "--replay", str(path))
    assert (code, out) == (2, "")
    assert f"{path}: the pair is an example id or 'files'" in err


@pytest.mark.parametrize("error", [TypeError, IndexError, ZeroDivisionError])
def test_an_unexpected_exception_in_a_reader_exits_4(error, monkeypatch, tmp_path, capsys):
    # A reader names what it rejects with a ValueError or KeyError; anything else is a bug.
    def fail(data, algebra):
        raise error("injected")

    files = write_files_input(tmp_path, load("II"))
    monkeypatch.setattr(LatticeSpec, "from_json", staticmethod(fail))
    code, out, err = invoke(capsys, "certify", *files)
    assert (code, out) == (4, "")
    assert err == f"internal error: {error.__name__}: injected\n"
