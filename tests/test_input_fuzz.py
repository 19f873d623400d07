"""One-node mutations of user files: each is refused by name or changes nothing.

Hypothesis draws single mutations of pair II's and pair V's ``certify
--files`` export (algebra, metric, both lattices and the witness; V's
witness is a composite), of the algebra file given to ``validate``, and of
the ``pair`` and ``kind`` of a replay certificate, and runs the command in
process through ``cli.run``.  A mutation changes one node:

- a scalar becomes null, a number, a bool, a one-element list, "x" or "1/0";
- a list loses or repeats its last item, becomes {}, or, if all its items
  are strings, becomes their concatenation;
- an object loses a key or gains one that no reader reads.

No mutated run may exit 4, print a traceback or report an internal error.
A mutation that changes a node's JSON type, or the length of a list whose
length the format fixes (a matrix and its rows, ``names``, a bracket
[i, j, terms], a term [k, "p/q"]), must exit 2 and name the mutated file.
The lists of brackets, of a bracket's terms and of a composite's factors
have no fixed length: one item fewer or more is another well-formed file,
which may have a verdict of its own.  Every other mutation, and any
mutation under a key that no reader reads, must exit 2 or leave stdout and
the exit code as they were.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilspec.cli import run
from nilspec.registry import load

from json_writers import write_files_input

PAIRS = ("II", "V")
FILES = ("alg", "met", "l1", "l2", "w")
SAMPLES = ("--samples", "3")
UNREAD = ("algebra_ref",)  # a key of the metric and lattice files that no reader reads
DROP = object()
FUZZ = {"derandomize": True, "deadline": None, "database": None}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _fixed_length(path) -> bool:
    return path[-1:] not in (("brackets",), ("factors",)) and path[-3::2] != ("brackets", 2)


def _scalar_mutations(node, path):
    for new in (None, 0.5, True, [node], "x", "1/0"):
        yield path, new, "refused" if type(new) is not type(node) else "same"


def _mutations(node, path=()):
    """(path, new value or DROP, rule) for each one-node mutation at or under node.

    rule is "refused" (exit 2 naming the file), "same" (exit 2 or the
    unmutated result) or "own" (any result but an internal error).
    """
    if isinstance(node, dict):
        yield path + ("unread",), 1, "same"
        for key, child in node.items():
            yield path + (key,), DROP, "same"
            for where, new, rule in _mutations(child, path + (key,)):
                yield where, new, "same" if key in UNREAD else rule
    elif isinstance(node, list):
        if node:
            rule = "refused" if _fixed_length(path) else "own"
            yield path, node[:-1], rule
            yield path, node + node[-1:], rule
        yield path, {}, "refused"
        if node and all(isinstance(x, str) for x in node):
            yield path, "".join(node), "refused"
        for i, child in enumerate(node):
            yield from _mutations(child, path + (i,))
    else:
        yield from _scalar_mutations(node, path)


def _apply(data, path, new):
    data = copy.deepcopy(data)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    if new is DROP:
        del node[last]
    else:
        node[last] = new
    return data


class Export:
    """A pair's --files export in a directory, with its unmutated results."""

    def __init__(self, directory, example_id):
        self.argv = write_files_input(directory, load(example_id))
        self.paths = {name: directory / f"{name}.json" for name in FILES}
        self.data = {name: json.loads(p.read_text()) for name, p in self.paths.items()}
        self.certify = (*SAMPLES, "certify", *self.argv)
        self.validate = ("validate", str(self.paths["alg"]))
        _, out, _ = _run(("--json", *SAMPLES, "certify", example_id))
        self.certificate = directory / "cert.json"
        self.certificate_data = json.loads(out)["rep_equivalence"]
        self.certificate.write_text(json.dumps(self.certificate_data))
        self.replay = (*SAMPLES, "certify", "--replay", str(self.certificate))
        self.baseline = {argv: _run(argv) for argv in (self.certify, self.validate, self.replay)}

    def sites(self, names):
        return [(name, *m) for name in names for m in _mutations(self.data[name])]

    def check(self, argv, path, data, mutation):
        """Run argv with path holding data mutated by mutation, and apply the oracle."""
        where, new, rule = mutation
        path.write_text(json.dumps(_apply(data, where, new)))
        try:
            code, out, err = _run(argv)
        finally:
            path.write_text(json.dumps(data))
        note = (path.name, where, new, rule, code, out, err)
        assert code != 4 and "Traceback" not in err and "internal error" not in err, note
        if rule == "refused":
            assert (code, out) == (2, "") and str(path) in err, note
        elif rule == "same" and code != 2:
            assert (code, out) == self.baseline[argv][:2], note


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    out = {}
    for example_id in PAIRS:
        directory = tmp_path_factory.mktemp(f"export_{example_id}")
        out[example_id] = Export(directory, example_id)
    return out


@pytest.mark.parametrize("example_id", PAIRS)
def test_the_unmutated_runs_give_verdicts(exports, example_id):
    # The oracle compares with these, so none of them may be an error.
    export = exports[example_id]
    for argv, (code, out, err) in export.baseline.items():
        assert code in (0, 1) and out and not err, argv


@pytest.mark.parametrize("example_id", PAIRS)
@settings(max_examples=120, **FUZZ)
@given(data=st.data())
def test_a_mutated_files_export_is_refused_by_name_or_changes_nothing(exports, example_id, data):
    export = exports[example_id]
    name, *mutation = data.draw(st.sampled_from(export.sites(FILES)))
    export.check(export.certify, export.paths[name], export.data[name], mutation)


@pytest.mark.parametrize("example_id", PAIRS)
@settings(max_examples=80, **FUZZ)
@given(data=st.data())
def test_a_mutated_algebra_file_is_refused_by_validate_or_changes_nothing(exports, example_id, data):
    export = exports[example_id]
    _, *mutation = data.draw(st.sampled_from(export.sites(["alg"])))
    export.check(export.validate, export.paths["alg"], export.data["alg"], mutation)


@pytest.mark.parametrize("example_id", PAIRS)
@pytest.mark.parametrize("key", ["pair", "kind"])
def test_a_replayed_certificate_with_a_mutated_pair_or_kind_is_refused(exports, example_id, key):
    # Every scalar mutation of the two keys that choose the certifier; the
    # certificate's body is compared whole, so a change there is a mismatch.
    export = exports[example_id]
    value = export.certificate_data[key]
    for mutation in _scalar_mutations(value, (key,)):
        export.check(export.replay, export.certificate, export.certificate_data, mutation)
