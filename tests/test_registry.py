import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from nilspec.geometry import Metric
from nilspec.lattices import LatticeSpec
from nilspec.liealg import DEFAULT_SEED, NilLieAlgebra
from nilspec.registry import EXAMPLE_IDS, load
from nilspec.vecops import basis_vec

from conftest import build_dim5, build_dim7, example_v_map, lattice_gens
from json_writers import algebra_json, lattice_json, metric_json

F = Fraction

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "nilspec" / "data"

# Golden data integrity: silent edits to the bundled files must fail here.
CHECKSUMS = {
    "algebras.json": "6815fd11625636e22f58e17d8b6b9349c749ce27a351aee2ce212e7f2b9d17cf",
    "example_I.json": "6925ec219e4806c2292091b844c7d8915055610fc12f4c1e6f13452300a223dc",
    "example_II.json": "7a01c5a2e963fce8f128923b4ef74bf7a259216b5aecd352372de6554f585121",
    "example_III.json": "cf4a1408789de3352a67ded1e981b353f1d59a3275228fa2eb6d05365c109d83",
    "example_IV.json": "0d2c41f788b33794a4b5fe740ea326656663b74bdd7db5f2494207f24c36ae4a",
    "example_V.json": "ada067cd8f1e57cf702c0b210f25c9886427509f13c7d01e282bc32493017053",
}


def test_data_checksums_pinned():
    files = sorted(p.name for p in DATA_DIR.glob("*.json"))
    assert files == sorted(CHECKSUMS)
    for name, digest in CHECKSUMS.items():
        got = hashlib.sha256((DATA_DIR / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} changed on disk"


def test_load_unknown_id():
    with pytest.raises(KeyError):
        load("VI")


def test_all_records_validate():
    for ex in EXAMPLE_IDS:
        record = load(ex)
        report = record.algebra.validate()
        assert report.jacobi_ok and report.step == 3
        c1 = record.spec1.center_intersection()
        c2 = record.spec2.center_intersection()
        assert c1 == c2
        for atom in record.quotient_witness.atoms():
            assert atom.kind in ("almost_inner", "inner", "isometry")


def test_records_match_reference_definitions():
    dim7, dim5 = build_dim7(), build_dim5()
    for ex in EXAMPLE_IDS:
        record = load(ex)
        ref_alg = dim5 if ex in ("II", "IV") else dim7
        assert algebra_json(record.algebra) == algebra_json(ref_alg)
        assert record.spec1.generators == lattice_gens(f"{ex}.1")
        assert record.spec2.generators == lattice_gens(f"{ex}.2")
    v = load("V")
    m = example_v_map()
    assert v.iso_witness == m
    # Example V generators are the witness images of the first lattice's.
    for g1, g2 in zip(v.spec1.generators, v.spec2.generators):
        image = tuple(sum(m[i][j] * g1[j] for j in range(7)) for i in range(7))
        assert image == g2


def test_example_records_roundtrip_bit_exact():
    for ex in EXAMPLE_IDS:
        record = load(ex)
        raw = json.loads((DATA_DIR / f"example_{ex}.json").read_text())
        alg_raw = json.loads((DATA_DIR / "algebras.json").read_text())
        algebra = NilLieAlgebra.from_json(alg_raw[raw["algebra_ref"]])
        assert algebra_json(algebra) == alg_raw[raw["algebra_ref"]]
        spec = LatticeSpec.from_json(raw["lattices"][0], algebra)
        assert lattice_json(spec, raw["algebra_ref"]) == raw["lattices"][0]
        met = Metric.from_json(raw["metric"], algebra)
        assert metric_json(met, raw["algebra_ref"]) == raw["metric"]


def test_eigen_candidates():
    iii = load("III")
    assert iii.eigen_candidate.a == ((1, 0), (0, 0), (1, 0))
    assert iii.eigen_candidate.b == ()
    assert iii.s2_target == F(1, 4)
    v = load("V")
    assert v.eigen_candidate.b == ((1, 0),)
    assert v.eigen_candidate.q == ((1, 0), (0, 0), (F(17, 4), 0))
    assert v.s2_target == F(17, 16)


def test_sector_flags_partition():
    record = load("III")
    labels = set(record.sector_flag.labels)
    assert labels == {"I", "II", "III", "IV"}
    assert record.sector_flag.classify(basis_vec(7, 0)) == "I"


def test_nilspec_data_override(tmp_path, monkeypatch):
    import shutil

    import nilspec.registry as reg

    for name in CHECKSUMS:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    # Corrupt a bracket constant in the copied algebra file.
    data = json.loads((tmp_path / "algebras.json").read_text())
    data["dim7"]["brackets"][0][2][0][1] = "2/3"
    (tmp_path / "algebras.json").write_text(json.dumps(data))
    monkeypatch.setenv("NILSPEC_DATA", str(tmp_path))
    reg._CACHE.clear()
    # The override directory is read, and the corrupted bracket constant is
    # caught by lattice validation at load time.
    with pytest.raises(ValueError):
        load("I")
    monkeypatch.delenv("NILSPEC_DATA")
    reg._CACHE.clear()


def test_a_data_copy_with_a_second_witness_key_loads_as_before(tmp_path, monkeypatch):
    # Older data files also carried "rep_equivalent_witness"; the key is not read.
    import shutil

    import nilspec.registry as reg

    bundled = load("I").quotient_witness
    for name in CHECKSUMS:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    path = tmp_path / "example_I.json"
    data = json.loads(path.read_text())
    data["rep_equivalent_witness"] = {"kind": "unread"}
    path.write_text(json.dumps(data))
    monkeypatch.setenv("NILSPEC_DATA", str(tmp_path))
    monkeypatch.setattr(reg, "_CACHE", {})
    record = load("I")
    assert record.quotient_witness == bundled
    assert not hasattr(record, "rep_equivalent_witness")


@pytest.mark.parametrize("override", [None, ""], ids=["unset", "empty"])
def test_bundled_data_is_read_from_the_package_directory(override, monkeypatch):
    # With NILSPEC_DATA unset or empty, each bundled file is one open in the
    # package's own data directory, which an installed package ships too.
    import nilspec.registry as reg

    if override is None:
        monkeypatch.delenv("NILSPEC_DATA", raising=False)
    else:
        monkeypatch.setenv("NILSPEC_DATA", override)
    for name, digest in CHECKSUMS.items():
        assert hashlib.sha256(reg._data_text(name).encode("utf-8")).hexdigest() == digest, name


def test_table_one_computes_each_rows_quotient_once(monkeypatch):
    # A loaded record is the Pair that certify_isospectral and distinguish_pair
    # both read, so the 2-step quotient of each row is computed once, on it.
    import nilspec.registry as reg
    from nilspec.repspec import Pair

    monkeypatch.setattr(reg, "_CACHE", {})
    misses = []
    quotient_data = Pair.quotient_data

    def counted(pair):
        if pair._quotient is None:
            misses.append(pair)
        return quotient_data(pair)

    monkeypatch.setattr(Pair, "quotient_data", counted)
    reg.table_one(["II", "III"], DEFAULT_SEED)
    assert [p.name for p in misses] == ["II", "III"]
    assert misses[0] is load("II") and misses[1] is load("III")


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_a_record_is_its_pair(example_id):
    from nilspec.repspec import Pair

    record = load(example_id)
    assert isinstance(record, Pair)
    assert record.name == example_id
    assert not hasattr(record, "pair") and not hasattr(record, "id")
