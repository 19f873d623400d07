"""Self-check of the benchmark (about two minutes; not part of tier-1).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/bench_selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run as bench
from answers import EXAMPLE_IDS, II_ISOMORPHISM, PAPER_TABLE
from layers import TIMED


def _bundled(example_id):
    path = bench.SRC / "nilspec" / "data" / f"example_{example_id}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_known_answers_agree_with_bundled_tables():
    yes = {"Yes": True, "No": False}
    for example_id in EXAMPLE_IDS:
        data = _bundled(example_id)
        table = data["expected_table"]
        assert PAPER_TABLE[example_id] == {
            "rep_equivalent": yes[table["rep_equivalent"]],
            "same_p_form": yes[table["same_p_form"]],
            "isomorphic": yes[table["isomorphic"]],
        }
    witness = _bundled("II")["iso_witness"]
    assert [[Fraction(x) for x in row] for row in witness] == [
        [Fraction(x) for x in row] for row in II_ISOMORPHISM
    ]


def _launch(stdout, code=0, stderr=""):
    return bench.Launch([], 1.0, 1.0, 30.0, code, stdout, stderr, False)


def test_checks_reject_wrong_and_broken_outputs():
    command = ("distinguish", "III")
    good = {"verdict": "not_one_form_isospectral",
            "character_multiplicities": {"lattice1": 0, "lattice2": 2}}
    assert bench.verdicts_of(command, _launch(json.dumps(good))) == [bench.OK]
    swapped = dict(good, character_multiplicities={"lattice1": 2, "lattice2": 0})
    assert bench.verdicts_of(command, _launch(json.dumps(swapped))) == [bench.WRONG]
    inconclusive = dict(good, verdict="inconclusive")
    assert bench.verdicts_of(command, _launch(json.dumps(inconclusive))) == [bench.UNDECIDED]
    assert bench.verdicts_of(command, _launch(json.dumps(good), code=1)) == [bench.WRONG]
    assert bench.verdicts_of(command, _launch("{not json")) == [bench.WRONG]
    traceback = "Traceback (most recent call last):\n  ...\nRuntimeError: boom\n"
    assert bench.verdicts_of(command, _launch(json.dumps(good), stderr=traceback)) == [bench.WRONG]

    search = ("search-iso", "III", "--bound", "3")
    exhausted = {"found": None, "exhausted": True}
    assert bench.verdicts_of(search, _launch(json.dumps(exhausted), code=1)) == [bench.OK]
    assert bench.verdicts_of(search, _launch(json.dumps({"truncated": True}), code=3)) == [
        bench.UNDECIDED
    ]
    found = {"found": II_ISOMORPHISM, "exhausted": False}
    assert bench.verdicts_of(search, _launch(json.dumps(found))) == [bench.WRONG]
    assert bench.verdicts_of(("search-iso", "II"), _launch(json.dumps(found))) == [bench.OK]

    row = {"example": "II", "isospectral": "yes (certified)",
           "rep_equivalent": "yes (certified)",
           "same_one_form_spectrum": "equal (representation equivalent)",
           "isomorphic_fundamental_groups": "yes (verified witness)"}
    table = ("table1", "II")
    assert bench.verdicts_of(table, _launch(json.dumps([row]))) == [bench.OK] * 4
    other_pair = dict(row, example="III")
    assert bench.verdicts_of(table, _launch(json.dumps([other_pair]))) == [bench.WRONG] * 4
    not_isomorphic = dict(row, isomorphic_fundamental_groups="no isomorphism within bound 1")
    assert bench.verdicts_of(table, _launch(json.dumps([not_isomorphic]))) == [
        bench.OK, bench.OK, bench.OK, bench.WRONG
    ]


def test_times_are_medians_of_repeats():
    def run(command, wall):
        return bench.CommandRun(command, bench.Launch([], wall, wall / 2, 30.0, 0, "", "", False),
                                [bench.OK])

    certify, distinguish = ("certify", "I"), ("distinguish", "III")
    runs = [run(certify, 1.0), run(distinguish, 4.0), run(certify, 3.0),
            run(distinguish, 2.0), run(certify, 2.0)]
    sums = bench.time_sums(runs)
    assert sums["wall_s"] == 2.0 + 3.0
    assert sums["cpu_s"] == 1.0 + 1.5
    assert (sums["certify_s"], sums["distinguish_s"]) == (2.0, 3.0)


def test_seed_changes_order_not_verdicts():
    env = bench.child_env()
    deadline = time.perf_counter() + 300
    results = []
    for seed in (1, 2):
        runs = bench.run_pass(next(bench.orders("verdicts", seed)), seed, env, deadline)
        assert all(" ".join(map(str, r.launch.argv)).count(f"--seed {seed}") == 1 for r in runs)
        results.append(([r.command for r in runs], {r.command: r.verdicts for r in runs}))
    (order1, verdicts1), (order2, verdicts2) = results
    assert order1 != order2
    assert verdicts1 == verdicts2
    assert all(s == bench.OK for statuses in verdicts1.values() for s in statuses)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_covers_every_listed_function(workload):
    env = bench.child_env()
    deadline = time.perf_counter() + 300
    traced = bench.run_pass(bench.WORKLOADS[workload], 1, env, deadline, traced=True)
    assert [s for r in traced for s in r.verdicts if s == bench.WRONG] == []
    metrics = bench.layer_metrics(traced, traced)
    missed = [
        f"{layer}.{qualname}"
        for layer, _, qualname, must_run_on in TIMED
        if must_run_on == workload and metrics[f"{layer}.{qualname}.calls"][0] == 0
    ]
    assert missed == []
    if workload == "search":
        assert metrics["isosearch.nodes"][0] > 0
        assert 0 < metrics["lattices.contains.accept_ratio"][0] < 1


def test_source_tree_id_matches_git():
    git = shutil.which("git")
    if git is None or bench.git_commit() is None:
        pytest.skip("not a git checkout")
    dirty = subprocess.run([git, "status", "--porcelain", "--", "src"], cwd=bench.ROOT,
                           capture_output=True, text=True).stdout
    if dirty.strip():
        pytest.skip("src/ differs from HEAD")
    head = subprocess.run([git, "rev-parse", "HEAD:src"], cwd=bench.ROOT,
                          capture_output=True, text=True).stdout.strip()
    assert bench.git_tree_sha(bench.SRC) == head


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.BENCH, tmp_path / bench.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in command]
        + ["--workload", "verdicts", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
