"""Import layering of the package, read from the source with ast.

The math modules sit below the registry and the CLI: they never import
either, so the exact arithmetic can be reused without the bundled data.
The package has no runtime dependency: no module imports numpy, and the
bundled data is read with ``open``, not ``importlib.resources``.  The
isomorphism search loads only what it runs: the registry and the CLI import
the certifier, one-form and metric modules inside the functions that use them.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import nilspec
from nilspec.registry import EXAMPLE_IDS, load, load_lattices

PACKAGE = pathlib.Path(nilspec.__file__).parent
MATH_MODULES = (
    "exactnum",
    "vecops",
    "liealg",
    "lattices",
    "geometry",
    "repspec",
    "oneform",
    "isosearch",
)


def _modules():
    """(top-level name under nilspec, module name, [(imported names, scope)])."""
    for path in sorted(PACKAGE.rglob("*.py")):
        package = ("nilspec",) + path.parent.relative_to(PACKAGE).parts
        name = ".".join(package + (path.stem,))
        top = name.split(".")[1]
        yield top, name, _imports(ast.parse(path.read_text(encoding="utf-8")), package)


def _imports(tree, package):
    """Absolute names each import statement loads, with its enclosing def."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.append(([alias.name for alias in child.names], scope))
            elif isinstance(child, ast.ImportFrom):
                parts = list(package[: len(package) - child.level + 1]) if child.level else []
                base = ".".join(parts + ([child.module] if child.module else []))
                names = [base] + [f"{base}.{alias.name}" for alias in child.names]
                out.append((names, scope))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, None)
    return out


def _refers_to(names, target):
    return any(n == target or n.startswith(target + ".") for n in names)


def test_only_cli_imports_cli():
    for top, module, imports in _modules():
        for names, _ in imports:
            assert top == "cli" or not _refers_to(names, "nilspec.cli"), module


def test_math_modules_do_not_import_registry():
    for top, module, imports in _modules():
        for names, scope in imports:
            if top in MATH_MODULES:
                assert not _refers_to(names, "nilspec.registry"), (module, scope)


def test_no_module_imports_numpy_or_importlib_resources():
    for _, module, imports in _modules():
        for names, scope in imports:
            for target in ("numpy", "importlib.resources", "cmath"):
                assert not _refers_to(names, target), (module, scope, target)


COEFF_KEYS = ("a_coeffs", "b_coeffs", "q_coeffs")


def test_no_polynomial_ring_classes_and_one_reader_of_candidate_coefficients():
    # A candidate eigenvalue is coefficient data, (re, im) pairs per degree,
    # which the one-form layer eliminates on integers itself: exactnum keeps
    # no ring of polynomials in pi, and only oneform reads the tuples or
    # their JSON keys.
    assert not (PACKAGE / "exactnum" / "poly.py").exists()
    assert not (PACKAGE / "exactnum" / "quadext.py").exists()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = (path.name, getattr(node, "lineno", None))
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
            assert name not in ("UniPoly", "QuadExtElem", "GaussRat"), where
            if path.name != "oneform.py":
                assert not (isinstance(node, ast.Attribute) and node.attr in ("a", "b", "q")), where
                assert not (isinstance(node, ast.Constant) and node.value in COEFF_KEYS), where


def test_only_lattices_constructs_lattice_specs():
    # Other modules get a spec from LatticeSpec.from_json or LatticeSpec.quotient,
    # so each projected lattice is built and validated in one place.
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "lattices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "LatticeSpec", (path.name, node.lineno)


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_only_rat_matrix_reads_rows_of_rationals():
    # exactnum.scalars.rat_matrix checks that each row is a list of the
    # stated length; a comprehension over a row elsewhere would read a string
    # row such as "20000" digit by digit.
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() == "exactnum/scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, COMPREHENSIONS):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                assert "rat_from_str" not in names, (path.name, node.lineno)


def _callers(target):
    """(file name, enclosing class and def names) of each call to ``target`` in the package."""
    out = set()

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == target:
                    out.add((path.name, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, child, scope + (child.name,))
            else:
                visit(path, child, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), ())
    return out


def test_only_subspace_reduces_rational_rows():
    # Subspace keeps the reduced form and its pivots, so reduction, projection
    # and intersection read them there instead of eliminating again.
    for name, scope in _callers("rref"):
        assert name == "matrix.py" or (name, scope[:1]) == ("liealg.py", ("Subspace",)), (name, scope)


def test_one_forward_elimination_over_q():
    # rref scales rows to integers and eliminates with bareiss_echelon, and
    # kernels are read off its reduced rows, so bareiss_echelon is the one
    # function in the matrix module that swaps rows to pivot.
    tree = ast.parse((PACKAGE / "exactnum" / "matrix.py").read_text(encoding="utf-8"))
    swapping = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Tuple)
        and all(isinstance(t, ast.Subscript) for t in node.targets[0].elts)
    }
    assert swapping == {"bareiss_echelon"}
    assert ("matrix.py", ("rref",)) in _callers("bareiss_echelon")
    assert ("matrix.py", ("rank_and_kernel",)) in _callers("rref")
    assert ("matrix.py", ("rank_and_kernel",)) not in _callers("bareiss_echelon")
    assert _callers("_kernel") == {("matrix.py", ("rank_and_kernel",)), ("matrix.py", ("solve_rational",))}


def test_only_solve_integer_calls_snf():
    # Kernels and complements come from the Hermite form; the Smith form is
    # left only for the depth-first step's particular solution.
    assert _callers("snf") == {("intlattice.py", ("solve_integer",))}


def test_the_enumeration_does_no_rational_elimination():
    # Columns are enumerated on echelon integer directions; the one rational
    # inverse in the search is the generator matrix its verify leaf uses.
    callers = {c for c in _callers("invert_rational") if c[0] == "isosearch.py"}
    assert callers == {("isosearch.py", ("bounded_lattice_isomorphism_search",))}


# Public functions and methods with no caller in the package, each used only
# by tests, with the reason it stays.  The list only shrinks: move a helper
# into tests/ or give it a caller.
UNCALLED_ALLOWED = {
    # Serves tests/test_acceptance.py; candidate-free one-form verdicts scan shells with it.
    ("nilspec.oneform", "s2_values_up_to"),
    # Proved non-isomorphism from finite quotients reads the pc relators' coordinates with it.
    ("nilspec.lattices", "LatticeSpec.malcev_coordinates"),
}


def _uncalled_public_functions():
    """(module, name) of each public top-level function or method outside the
    CLI that no code in the package names outside its own body.

    A method is named ``Class.method``; a use of the bare name anywhere else
    in the package counts as a call.
    """
    defs, users = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("nilspec",) + path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owners = [(top, getattr(top, "name", None))]
            if isinstance(top, ast.ClassDef):
                owners = [
                    (node, f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef) else top.name)
                    for node in top.body
                ]
            for root, owner in owners:
                if isinstance(root, ast.FunctionDef) and not root.name.startswith("_"):
                    defs.append((module, owner, root.name))
                for node in ast.walk(root):
                    if isinstance(node, ast.Name):
                        users.setdefault(node.id, set()).add((module, owner))
                    elif isinstance(node, ast.Attribute):
                        users.setdefault(node.attr, set()).add((module, owner))
    return {
        (module, owner)
        for module, owner, name in defs
        if module != "nilspec.cli" and not users.get(name, set()) - {(module, owner)}
    }


def test_every_public_function_has_a_caller_in_the_package():
    assert _uncalled_public_functions() == UNCALLED_ALLOWED


def _private(name):
    """Whether a dotted name has a component with one leading underscore."""
    return any(p.startswith("_") and not p.endswith("__") for p in name.split("."))


def test_no_module_imports_a_private_name():
    # An underscore name belongs to its own module; a second module that needs
    # it calls for a public name or a function that owns the job.
    found = [
        (module, name)
        for _, module, imports in _modules()
        for names, _ in imports
        for name in names
        if _private(name)
    ]
    assert found == []


def test_sectors_are_compared_in_repspec_alone():
    # oneform asks repspec for a verdict per sector; it neither samples
    # functionals nor calls a multiplicity routine itself.
    imports = {module: imports for _, module, imports in _modules()}["nilspec.oneform"]
    from_repspec = {n for names, _ in imports if names[0] == "nilspec.repspec" for n in names[1:]}
    assert from_repspec == {"nilspec.repspec.certify_rep_equivalent", "nilspec.repspec.sector_check"}
    assert {c for c in _callers("sample_fraction") if c[0] != "liealg.py"} == {
        ("repspec.py", ("_sector_samples",))
    }


def test_no_module_imports_dataclasses():
    # Records are NamedTuples or plain classes: dataclasses pulls in inspect,
    # which no command otherwise loads, so every process would pay for it.
    for _, module, imports in _modules():
        for names, scope in imports:
            assert not _refers_to(names, "dataclasses"), (module, scope)


def _parsed():
    """(module name, parsed source) of each module in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("nilspec",) + path.relative_to(PACKAGE).with_suffix("").parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def test_private_attributes_are_read_only_where_they_are_set():
    # A one-underscore attribute belongs to the module that defines or assigns
    # it. Reading it off another module's object (anything but self or cls)
    # couples the reader to that module's representation; the owner offers a
    # method instead, as Metric.frame_matrix does for the frame inverse.
    owners, reads = {}, []
    for module, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name, stored = node.name, True
            elif isinstance(node, ast.Name):
                name, stored = node.id, isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.Attribute):
                name, stored = node.attr, isinstance(node.ctx, ast.Store)
                own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                if _private(name) and not stored and not own:
                    reads.append((module, name, node.lineno))
            else:
                continue
            if stored and _private(name):
                owners.setdefault(name, set()).add(module)
    assert [r for r in reads if r[0] not in owners.get(r[1], ())] == []


# The sampling policy, defined once in liealg: the default seed of every
# sampled check and its two sample counts, with the CLI flag each one backs.
SAMPLING_POLICY = {"DEFAULT_SEED": "--seed", "CERTIFY_SAMPLES": "--samples", "SECTOR_SAMPLES": "--samples-small"}
SAMPLING_PARAMETERS = {"seed": {"DEFAULT_SEED"}, "n_samples": {"CERTIFY_SAMPLES", "SECTOR_SAMPLES"}}


def _defaults(node):
    """(parameter, default expression) of each defaulted parameter of a def."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(a.arg, d) for a, d in pairs]


def test_one_sampling_policy_in_liealg():
    # Each sampled entry point defaults to the liealg names, and the CLI's
    # flags read the same names, so certify, distinguish and table1 sample
    # alike at their defaults. No literal count or seed, and no None
    # sentinel, stands in for the policy anywhere in the package.
    defined, flags, bad = [], {}, []
    for module, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                defined += [(module, t.id) for t in node.targets if getattr(t, "id", None) in SAMPLING_POLICY]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for param, default in _defaults(node):
                    allowed = SAMPLING_PARAMETERS.get(param)
                    if allowed and getattr(default, "id", None) not in allowed:
                        bad.append((module, node.name, param, ast.unparse(default)))
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg in SAMPLING_PARAMETERS and any(
                        isinstance(c, ast.Constant) for c in ast.walk(kw.value)
                    ):
                        bad.append((module, node.lineno, kw.arg, ast.unparse(kw.value)))
                first = node.args[0] if node.args else None
                if getattr(node.func, "attr", None) == "add_argument" and isinstance(first, ast.Constant):
                    default = next((kw.value for kw in node.keywords if kw.arg == "default"), None)
                    flags[first.value] = getattr(default, "id", None)
    assert sorted(defined) == [("nilspec.liealg", name) for name in sorted(SAMPLING_POLICY)]
    assert bad == []
    assert {flag: flags.get(flag) for flag in SAMPLING_POLICY.values()} == {
        flag: name for name, flag in SAMPLING_POLICY.items()
    }


# Modules that search-iso never runs, so a search process must not compile them.
NOT_SEARCHED = ("nilspec.geometry", "nilspec.repspec", "nilspec.oneform", "nilspec.exactnum.qforms")


def test_search_iso_loads_only_the_search_modules():
    code = (
        "import sys\n"
        "from nilspec import cli\n"
        "assert cli.run(['--json', 'search-iso', 'IV', '--bound', '3']) == 1\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('nilspec'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    loaded = done.stdout.splitlines()[-1].split()
    assert "nilspec.isosearch" in loaded
    assert [m for m in NOT_SEARCHED if m in loaded] == []


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_load_lattices_agrees_with_load(example_id):
    algebra, spec1, spec2 = load_lattices(example_id)
    record = load(example_id)
    assert algebra.structure_tensor() == record.algebra.structure_tensor()
    assert (spec1.generators, spec2.generators) == (record.spec1.generators, record.spec2.generators)
    assert spec1.algebra is spec2.algebra is algebra
