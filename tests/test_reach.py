"""Every public function in the package runs on a bundled command.

The has-a-caller guard in ``test_layering`` reads the source and matches a
method by its bare name, so a method whose name another class also defines
(``to_json``, say) passes it unseen.  This guard runs a fixed set of cheap
commands in-process under ``sys.setprofile`` and asserts that each public
top-level function and method outside ``cli`` is entered by at least one of
them.  Dunders, underscore names and ``UNCALLED_ALLOWED`` are exempt.  The
registry's cache is emptied first, so the bundled pairs are parsed and
validated under the profiler whatever ran before.
"""

import inspect
import pkgutil
import sys
from importlib import import_module

import nilspec
from nilspec import registry
from nilspec.cli import run

from json_writers import write_files_input
from test_layering import UNCALLED_ALLOWED

BUNDLED = (
    [["certify", x] for x in ("I", "II", "III", "IV", "V")]
    + [["distinguish", x] for x in ("I", "II", "IV", "V")]
    + [["distinguish", "III", "--cross-check"]]
    + [["multiplicities", "III", "--sector", s] for s in ("I", "II", "III", "IV")]
    + [["table1", "II"], ["search-iso", "II", "--bound", "2"]]
)


def _public_functions():
    """(module, qualname) -> code object of each public function or method outside cli."""
    out = {}
    for info in pkgutil.walk_packages(nilspec.__path__, "nilspec."):
        if info.name == "nilspec.cli":
            continue
        module = import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out[(module.__name__, obj.__qualname__)] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        out[(module.__name__, f"{obj.__name__}.{attr}")] = member.__code__
    return out


def test_every_public_function_runs_on_a_bundled_command(tmp_path, monkeypatch, capsys):
    files = write_files_input(tmp_path, registry.load("II"))
    monkeypatch.setattr(registry, "_CACHE", {})
    commands = BUNDLED + [["validate", files[1]], ["certify", *files]]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [run(["--json", "--seed", "1", *argv]) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert 4 not in codes and 2 not in codes, list(zip(commands, codes))
    unreached = {key for key, code in _public_functions().items() if code not in entered}
    assert unreached == set(UNCALLED_ALLOWED)
