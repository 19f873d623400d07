#!/usr/bin/env python3
"""Record a baseline: several seeds per workload, then one traced run each.

Run from the root of a checkout (about 20 minutes on two cores):

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs the command in ``BENCHMARK.json`` once per seed and workload (seeds
1..runs, workloads interleaved), then once per workload with ``--trace 1``.
For each end-to-end metric it records the values, their median and
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread ``(q3 - q1) / median`` next to the metric's bound.  It also records
the per-command medians from the summary lines, the per-layer table of the
traced runs, the machine, the Python version and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import COMMAND_METRICS, ROOT, SRC, git_commit, git_tree_sha


def bench_run(command, workload, seed, seconds, trace) -> tuple[dict, dict]:
    argv = [sys.executable if c == "python3" else c for c in command]
    proc = subprocess.run(
        argv + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    summary = {}
    for line in lines:
        key, _, value = line[2:].partition(": ")
        if line.startswith("# ") and key in COMMAND_METRICS.values():
            summary[key] = float(value)
    return result, summary


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread_table(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    values = {w: {m: [] for m in bounds} for w in workloads}
    per_command = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result, summary = bench_run(spec["command"], workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            for key, value in summary.items():
                per_command[workload].setdefault(key, []).append(value)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "system": platform.platform(),
        },
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_tree": git_tree_sha(SRC),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_command_median_s": {},
        "per_layer": {},
    }
    print(f"\n{'workload':10s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in workloads:
        table = {m: spread_table(v, bounds[m]) for m, v in values[workload].items()}
        record["end_to_end"][workload] = table
        record["per_command_median_s"][workload] = {
            k: statistics.median(v) for k, v in per_command[workload].items()
        }
        for name, row in table.items():
            flag = "" if name == "setup_s" or row["spread"] < row["bound"] / 3 else "  > bound/3"
            print(f"{workload:10s} {name:16s} {row['median']:12.5g} {row['spread']:8.4f} "
                  f"{row['bound']:6.2f}{flag}")
    for workload in workloads:
        result, _ = bench_run(spec["command"], workload, seeds[0], spec["run_seconds"], 1)
        record["per_layer"][workload] = {k: v["value"] for k, v in result["metrics"].items()}
        overhead = record["per_layer"][workload]["trace.overhead_s"]
        print(f"traced {workload}: overhead {overhead:.3f} s", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
