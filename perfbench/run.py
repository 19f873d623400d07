#!/usr/bin/env python3
"""nilspec benchmark: how long a CLI user waits for exact verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0

Every command runs as its own ``python -m nilspec.cli --json ...`` process,
one at a time, with the checkout's ``src/`` first on ``PYTHONPATH``.  A CLI
user pays interpreter start, import and data load on every command and
shares no in-process memoisation between commands, so the benchmark does
not reward either.  Each command's JSON and exit code are checked against
known answers (``answers.py``), never against nilspec's own output.

Workloads, and why each is here:

* ``verdicts``: ``certify I..V``, ``distinguish III IV V`` and ``table1 II``.
  The certifiers and the one-form path (Bareiss over Q(i)[p][s], Pesce and
  Moore-Wolf multiplicities, lattice quotients, Koszul connection), and the
  table's orchestration for one pair, with no isomorphism search; nine
  processes make start-up and load visible.
* ``search``: ``search-iso II --bound 2``, ``IV --bound 3``, ``III --bound 2``.
  ``isosearch`` alone: II filters candidates by Malcev membership and finds
  the known isomorphism, IV and III are exhausted by the bilinear probe.

The full ``table1`` is not a workload: row I's search runs deep DFS to the
node ceiling for half a minute or more, one timing that cannot be repeated
within a run.  The host is shared and a single timing moves by a quarter
from run to run, so every command here takes a few seconds at most and a
run repeats each of them several times.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed first: the
median of ``SETUP_REPEATS`` fresh interpreters that import ``nilspec.cli``
and load all five pairs; these also compile and cache the byte code, so
the timed commands start warm.  Then the workload runs round after round,
each round in an order drawn from ``--seed``, until the next command would
end more than ``--seconds`` after the first began (at least one round).
Each command's time is the median of its repeats; ``wall_s`` and ``cpu_s``
are sums of those medians over the workload's commands.  ``--seed`` is also
every command's sampling ``--seed``.

``--trace 1`` runs one untraced round, then one round with every command
under ``traced_cli.py``, and reports the per-layer metrics, the untraced
per-command times and the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Exit status: 0 when every verdict is right, 1 when one is wrong or a command
failed, 2 when this checkout cannot be measured (no result line then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from answers import EXAMPLE_IDS, II_ISOMORPHISM, ONE_FORM_MULTIPLICITIES, PAPER_TABLE
from layers import TIMED
from traced_cli import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {
    "verdicts": [("certify", x) for x in EXAMPLE_IDS]
    + [("distinguish", x) for x in ("III", "IV", "V")]
    + [("table1", "II")],
    "search": [
        ("search-iso", "II", "--bound", "2"),
        ("search-iso", "IV", "--bound", "3"),
        ("search-iso", "III", "--bound", "2"),
    ],
}
COMMAND_METRICS = {
    "certify": "certify_s",
    "distinguish": "distinguish_s",
    "search-iso": "search_iso_s",
    "table1": "table1_s",
}


def verdict_count(command) -> int:
    """certify gives isospectral and rep-equivalent, table1 four columns a pair."""
    return {"certify": 2, "table1": 4 * len(command[1:])}.get(command[0], 1)


SETUP_REPEATS = 5
SETUP_CODE = (
    "import nilspec, nilspec.cli\n"
    "from nilspec import registry\n"
    "for example_id in registry.EXAMPLE_IDS:\n"
    "    registry.load(example_id)\n"
    "print(nilspec.__file__)\n"
)
# Everything, set-up included, ends within this many seconds of the start.
DEADLINE_S = 170.0

OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"



class Unmeasurable(Exception):
    """The checkout cannot be measured; no result is printed."""


@dataclass
class Launch:
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool


@dataclass
class CommandRun:
    command: tuple
    launch: Launch
    verdicts: list


def launch(argv, env, timeout: float) -> Launch:
    """Run one process to completion; wall, CPU and peak RSS are its own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    err: list = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Launch(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=err[0].decode("utf-8", "replace") if err else "",
        timed_out=timed_out.is_set(),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env.pop("NILSPEC_DATA", None)  # the bundled pairs only
    return env


def git_tree_sha(path: Path) -> str:
    """Git's object id for the tree at ``path``, computed without git.

    It equals ``git rev-parse HEAD:src`` when ``src/`` matches the commit,
    so a checkout that is not a git repository still names what was
    measured.  Byte-code caches are skipped, as ``.gitignore`` skips them.
    """
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            entries.append((child.name + "/", b"40000", child.name, git_tree_sha(child)))
        else:
            data = child.read_bytes()
            mode = b"100755" if child.stat().st_mode & 0o111 else b"100644"
            sha = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            entries.append((child.name, mode, child.name, sha))
    body = b"".join(
        mode + b" " + name.encode() + b"\0" + bytes.fromhex(sha)
        for _, mode, name, sha in sorted(entries)
    )
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(env, deadline: float) -> tuple[float, str]:
    """Median set-up time, and the nilspec package file the children import."""
    if not (SRC / "nilspec" / "__init__.py").is_file():
        raise Unmeasurable(f"no nilspec package under {SRC}")
    times = []
    package = ""
    for _ in range(SETUP_REPEATS):
        run = launch([sys.executable, "-c", SETUP_CODE], env, deadline - time.perf_counter())
        if run.code != 0 or run.timed_out:
            raise Unmeasurable(f"set-up failed (exit {run.code}):\n{run.stderr}")
        package = run.stdout.strip().splitlines()[-1]
        if not Path(package).resolve().is_relative_to(SRC.resolve()):
            raise Unmeasurable(f"nilspec resolves to {package}, outside {SRC}")
        times.append(run.wall_s)
    return statistics.median(times), package


# -- verdict checks -------------------------------------------------------------


def _yes_no(said, wanted) -> str:
    if said is None:
        return UNDECIDED
    return OK if said == wanted else WRONG


def _said(cell: str, yes: str, no: str):
    """True, False or None (undecided), from the first word of a table cell."""
    return True if cell.startswith(yes) else False if cell.startswith(no) else None


def _as_fractions(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def check_certify(command, code, payload) -> list:
    want = PAPER_TABLE[command[1]]
    if code != (0 if want["rep_equivalent"] else 1):
        return [WRONG, WRONG]
    iso = payload["isospectral"]
    isospectral = OK if iso["kind"] == "isospectral" and iso["ok"] is True else WRONG
    cor = payload["rep_equivalence"]
    said = None
    if cor["ok"] is True and cor["kind"] in ("rep_equivalent", "not_rep_equivalent"):
        said = cor["kind"] == "rep_equivalent"
    return [isospectral, _yes_no(said, want["rep_equivalent"])]


def check_distinguish(command, code, payload) -> list:
    target = command[1]
    if code != 0:
        return [WRONG]
    verdicts = {"one_form_isospectral": True, "not_one_form_isospectral": False}
    said = verdicts.get(payload["verdict"])
    status = _yes_no(said, PAPER_TABLE[target]["same_p_form"])
    if status == OK and said is False:
        mults = payload["character_multiplicities"]
        if (mults["lattice1"], mults["lattice2"]) != ONE_FORM_MULTIPLICITIES[target]:
            return [WRONG]
    return [status]


def check_search(command, code, payload) -> list:
    target = command[1]
    if payload.get("truncated"):
        return [UNDECIDED]
    if payload["found"] is not None:
        if not PAPER_TABLE[target]["isomorphic"] or code != 0:
            return [WRONG]
        return [OK if _as_fractions(payload["found"]) == _as_fractions(II_ISOMORPHISM) else WRONG]
    if PAPER_TABLE[target]["isomorphic"] or code != 1 or payload["exhausted"] is not True:
        return [WRONG]
    return [OK]


def check_table1(command, code, payload) -> list:
    if code != 0 or [row["example"] for row in payload] != list(command[1:]):
        return [WRONG] * verdict_count(command)
    out = []
    for row in payload:
        want = PAPER_TABLE[row["example"]]
        out.append(OK if row["isospectral"] == "yes (certified)" else WRONG)
        out.append(_yes_no(_said(row["rep_equivalent"], "yes", "no"), want["rep_equivalent"]))
        out.append(_yes_no(_said(row["same_one_form_spectrum"], "equal", "distinct"),
                           want["same_p_form"]))
        iso = row["isomorphic_fundamental_groups"]
        if want["isomorphic"] or iso.startswith("yes"):
            out.append(OK if want["isomorphic"] and iso.startswith("yes") else WRONG)
        elif "truncated" in iso:
            out.append(UNDECIDED)
        else:
            out.append(OK if iso.startswith("no") else UNDECIDED)
    return out


CHECKS = {
    "certify": check_certify,
    "distinguish": check_distinguish,
    "search-iso": check_search,
    "table1": check_table1,
}


def verdicts_of(command, run: Launch) -> list:
    """One status per verdict the command gives: ok, undecided or wrong."""
    count = verdict_count(command)
    if run.timed_out or "Traceback (most recent call last)" in run.stderr:
        return [WRONG] * count
    try:
        statuses = CHECKS[command[0]](command, run.code, json.loads(run.stdout))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError):
        return [WRONG] * count
    return statuses if len(statuses) == count else [WRONG] * count


# -- rounds ---------------------------------------------------------------------


def cli_argv(command, seed: int, traced: bool) -> list:
    entry = [str(BENCH / "traced_cli.py")] if traced else ["-m", "nilspec.cli"]
    return [sys.executable, *entry, "--json", "--seed", str(seed), *command]


def orders(workload: str, seed: int):
    """The workload's commands in a fresh seed-drawn order for each round."""
    rng = random.Random(seed)
    while True:
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        yield order


def run_pass(commands, seed, env, deadline, traced=False) -> list:
    runs = []
    for command in commands:
        run = launch(cli_argv(command, seed, traced), env, deadline - time.perf_counter())
        runs.append(CommandRun(command, run, verdicts_of(command, run)))
    return runs


def run_rounds(workload, seed, env, seconds, deadline) -> list:
    """Rounds of the workload until the next command would end too late.

    Every command runs at least once.  After the first round, the run stops
    before a command whose previous time would carry it past ``seconds``
    from the start of the rounds (or past the deadline).
    """
    runs = []
    last: dict = {}
    start = time.perf_counter()
    for order in orders(workload, seed):
        for command in order:
            now = time.perf_counter()
            if len(last) == len(order) and (
                now - start + last[command] > seconds or now + last[command] > deadline
            ):
                return runs
            runs += run_pass([command], seed, env, deadline)
            last[command] = runs[-1].launch.wall_s


def command_times(runs) -> dict:
    """Per command: the median wall and CPU seconds over its repeats."""
    launches: dict = {}
    for r in runs:
        launches.setdefault(r.command, []).append(r.launch)
    return {
        command: (statistics.median(x.wall_s for x in xs), statistics.median(x.cpu_s for x in xs))
        for command, xs in launches.items()
    }


def time_sums(runs) -> dict:
    """Wall and CPU seconds of one typical round, in total and per command kind."""
    times = command_times(runs)
    sums = {
        "wall_s": sum(wall for wall, _ in times.values()),
        "cpu_s": sum(cpu for _, cpu in times.values()),
    }
    for command, (wall, _) in times.items():
        key = COMMAND_METRICS[command[0]]
        sums[key] = sums.get(key, 0.0) + wall
    return sums


def tally(runs) -> tuple[int, int, int]:
    statuses = [s for r in runs for s in r.verdicts]
    return len(statuses), statuses.count(WRONG), statuses.count(OK)


def trace_of(run: Launch) -> dict:
    for line in reversed(run.stderr.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return {"functions": {}, "counters": {}}


def layer_metrics(traced_runs, untraced_runs) -> dict:
    functions: dict = {}
    counters: dict = {}
    startup = 0.0
    for r in traced_runs:
        trace = trace_of(r.launch)
        for name, (calls, self_s, total_s) in trace["functions"].items():
            agg = functions.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        startup += r.launch.wall_s - trace["functions"].get("cli.run", [0, 0.0, 0.0])[2]

    def calls(name):
        return functions.get(name, [0, 0.0, 0.0])[0]

    def ratio(count, base):
        return counters.get(count, 0) / calls(base) if calls(base) else 0.0

    metrics = {}
    for layer, _, qualname, _ in TIMED:
        name = f"{layer}.{qualname}"
        agg = functions.get(name, [0, 0.0, 0.0])
        metrics[f"{name}.calls"] = (agg[0], "count")
        metrics[f"{name}.self_s"] = (agg[1], "s")
    search = "isosearch.bounded_lattice_isomorphism_search"
    search_s = functions.get(search, [0, 0.0, 0.0])[2]
    nodes = counters.get("search_nodes", 0)
    metrics.update({
        "lattices.contains.accept_ratio":
            (ratio("contains_accepted", "lattices.LatticeSpec.contains"), "ratio"),
        "exactnum.solve_integer.feasible_ratio":
            (ratio("solve_integer_feasible", "exactnum.solve_integer"), "ratio"),
        "oneform.det_at.zero_ratio": (ratio("det_at_zero", "oneform.det_at"), "ratio"),
        "isosearch.nodes": (nodes, "count"),
        "isosearch.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "isosearch.truncated": (counters.get("search_truncated", 0), "count"),
        "cli.startup_s": (startup, "s"),
    })
    untraced = time_sums(untraced_runs)
    for key in COMMAND_METRICS.values():
        metrics[key] = (untraced.get(key, 0.0), "s")
    metrics["trace.overhead_s"] = (time_sums(traced_runs)["wall_s"] - untraced["wall_s"], "s")
    return metrics


def end_to_end_metrics(setup_s: float, runs) -> dict:
    sums = time_sums(runs)
    attempted, _, decided = tally(runs)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sums["wall_s"], "s"),
        "cpu_s": (sums["cpu_s"], "s"),
        "peak_rss_mb": (max(r.launch.rss_mb for r in runs), "MB"),
        "decided_share": (decided / attempted, "ratio"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    setup_s, package = measure_setup(env, deadline)
    if trace:
        order = orders(workload, seed)
        untraced = run_pass(next(order), seed, env, deadline)
        traced = run_pass(next(order), seed, env, deadline, traced=True)
        metrics = layer_metrics(traced, untraced)
        runs = untraced + traced
    else:
        runs = untraced = run_rounds(workload, seed, env, seconds, deadline)
        metrics = end_to_end_metrics(setup_s, runs)

    info = {
        "workload": workload,
        "seed": seed,
        "nilspec": package,
        "src_tree": git_tree_sha(SRC),
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "order": [" ".join(r.command) for r in runs[: len(WORKLOADS[workload])]],
        "commands_run": len(runs),
    }
    for command in WORKLOADS[workload]:
        walls = [r.launch.wall_s for r in untraced if r.command == command]
        info[" ".join(command)] = "wall " + " ".join(f"{w:.3f}" for w in walls)
    sums = time_sums(untraced)
    for key in COMMAND_METRICS.values():
        if key in sums:
            info[key] = sums[key]
    attempted, failed, _ = tally(runs)
    info["failed_share"] = failed / attempted
    if trace:
        metrics["failed_share"] = (info["failed_share"], "ratio")
    return info, metrics, attempted, failed, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, metrics, attempted, failed, runs = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except Unmeasurable as exc:
        print(f"perfbench: cannot measure this checkout: {exc}", file=sys.stderr)
        return 2
    for key, value in info.items():
        print(f"# {key}: {value}")
    for r in runs:
        if WRONG in r.verdicts:
            print(f"# FAILED: {' '.join(r.command)} (exit {r.launch.code})")
            print(r.launch.stderr[-2000:])
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
