"""Run one nilspec CLI command with timing wrappers on the listed functions.

Usage: python3 perfbench/traced_cli.py [nilspec CLI arguments ...]

Behaves like ``python -m nilspec.cli``: same arguments, same stdout, same
exit code.  Before the command runs it wraps every function in
``layers.TIMED`` and patches every binding of it in the loaded nilspec
modules, since ``from .x import f`` leaves copies (``isosearch.solve_integer``,
``oneform.bareiss_echelon``, ...).  Per-function calls, self time and total
time stay in memory; at exit they go to stderr as one line starting with
``MARKER``, followed by a JSON object.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

from layers import TIMED

MARKER = "PERFBENCH_TRACE "


class Tracer:
    """Aggregated spans: per function, calls, self seconds, total seconds.

    Self time is a call's duration minus the durations of the wrapped calls
    made inside it.
    """

    def __init__(self):
        self.functions: dict[str, list] = {}
        self.counters = {
            "contains_accepted": 0,
            "solve_integer_feasible": 0,
            "det_at_zero": 0,
            "search_nodes": 0,
            "search_truncated": 0,
        }
        self._child_time = [0.0]

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        stats = self.functions.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            finally:
                duration = clock() - start
                inner = child_time.pop()
                child_time[-1] += duration
                stats[0] += 1
                stats[1] += duration - inner
                stats[2] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {"functions": self.functions, "counters": self.counters}


def _hooks(tracer: Tracer, isosearch) -> dict:
    counters = tracer.counters

    def contains(result):
        counters["contains_accepted"] += bool(result)

    def solve_integer(result):
        counters["solve_integer_feasible"] += result is not None

    def det_at(result):
        counters["det_at_zero"] += bool(result[1])

    def search(result):
        counters["search_nodes"] += result.nodes

    def search_error(exc, args, kwargs):
        # A truncated search has spent its whole node budget.
        if isinstance(exc, isosearch.SearchSpaceExceeded):
            budget = kwargs.get("budget", args[3] if len(args) > 3 else None)
            budget = budget or isosearch.SearchBudget()
            counters["search_truncated"] += 1
            counters["search_nodes"] += budget.node_ceiling

    return {
        "LatticeSpec.contains": (contains, None),
        "solve_integer": (solve_integer, None),
        "det_at": (det_at, None),
        "bounded_lattice_isomorphism_search": (search, search_error),
    }


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TIMED`` and rebind every reference to it."""
    import nilspec

    for info in pkgutil.walk_packages(nilspec.__path__, "nilspec."):
        importlib.import_module(info.name)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nilspec"]
    hooks = _hooks(tracer, sys.modules["nilspec.isosearch"])
    for layer, module_name, qualname, _ in TIMED:
        on_result, on_error = hooks.get(qualname, (None, None))
        owner = sys.modules[module_name]
        if "." in qualname:
            class_name, attr = qualname.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(f"{layer}.{qualname}", original, on_result, on_error))
            continue
        original = getattr(owner, qualname)
        wrapper = tracer.wrap(f"{layer}.{qualname}", original, on_result, on_error)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from nilspec import cli

    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.to_json()), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
