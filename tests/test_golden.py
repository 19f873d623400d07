"""Golden snapshots: ``--json --seed 1`` stdout and exit code, byte for byte.

``tests/golden/manifest.json`` lists each command line with its exit code;
``<name>.out`` holds its stdout, and no case writes to stderr.  A change
that is meant to leave every verdict as it is must leave these files as
they are.
"""

import json
from pathlib import Path

import pytest

from nilspec.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_snapshot(case, capsys):
    code = run(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert err == ""
