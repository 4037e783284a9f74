#!/usr/bin/env python3
"""Repeat the benchmark, or compare two checkouts under its bounds.

Repeat every workload ``N`` times in this checkout, each run a fresh
process with its own seed, and print the median, quartiles and spread
(quartile distance over the median) of every end-to-end metric::

    python3 bench/compare.py --repeat 10

Compare a parent and a change checkout (parent first)::

    python3 bench/compare.py --repeat 10 PARENT_DIR CHANGE_DIR

Each checkout runs its own ``BENCHMARK.json`` command from its root,
with the run length and workloads that file fixes; the two must hold
the same benchmark.  Pair ``k`` runs the parent and the change back to
back on seed ``--seed + k``, the parent first on even ``k`` and the
change first on odd ``k``, so machine drift falls on both sides.  Per
(workload, metric) the verdict is

* ``unresolved`` when either side's spread exceeds the bound, unless
  every change run reads better than every parent run;
* ``regression`` when the change's median is worse than the parent's
  by more than the bound;
* ``gain`` when the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* ``same`` otherwise.

More failed ops on the change also count as a regression.  Exits 1
when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def benchmark_files(root: Path, spec: dict) -> dict:
    """``{relative path: bytes}`` of the benchmark's own sources."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in spec["paths"]:
        for source in sorted((root / path).rglob("*.py")):
            files[str(source.relative_to(root))] = source.read_bytes()
    return files


def quartiles(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def run(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One run of ``workload`` in checkout ``root``: its result line."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    child = subprocess.run(command, cwd=root, check=True,
                           stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout.splitlines()[-1])


def collect(roots, spec: dict, runs: int, seed: int) -> list:
    """``runs`` rounds over every workload; in round ``k`` the roots
    take turns going first.  Returns per root ``{workload: {metric:
    [value per run], "failed": [...]}}``."""
    collected = [{w["name"]: {} for w in spec["workloads"]}
                 for _ in roots]
    for k in range(runs):
        for workload in collected[0]:
            order = range(len(roots)) if k % 2 == 0 \
                else reversed(range(len(roots)))
            for side in order:
                line = run(roots[side], spec, workload, seed + k)
                series = collected[side][workload]
                series.setdefault("failed", []).append(line["failed"])
                for metric, entry in line["metrics"].items():
                    series.setdefault(metric, []).append(entry["value"])
                print(f"run {k + 1}/{runs} {roots[side]} {workload}: "
                      + ", ".join(f"{metric} {entry['value']:.6g}"
                                  for metric, entry
                                  in line["metrics"].items()),
                      flush=True)
    return collected


def summarize(spec: dict, label: str, collected: dict) -> None:
    print(f"{label}\n{'workload':<16} {'metric':<16} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, series in collected.items():
        for metric in spec["end_to_end"]:
            values = series[metric["name"]]
            q1, median, q3 = quartiles(values)
            print(f"{name:<16} {metric['name']:<16} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread(values):>7.1%} "
                  f"{metric['bound']:>6.0%}")
        if sum(series["failed"]):
            print(f"{name:<16} {sum(series['failed'])} failed ops")


def verdict(metric: dict, parent, change) -> tuple:
    """``(verdict, relative change of the median)`` for one metric;
    ``parent[k]`` and ``change[k]`` are pair ``k``."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    relative = (change_median - parent_median) / parent_median
    if max(spread(parent), spread(change)) > bound and not \
            min(sign * v for v in change) > max(sign * v for v in parent):
        return "unresolved", relative
    if -sign * relative > bound:
        return "regression", relative
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * len(parent) and len(parent) >= 2:
        q1, _, q3 = quartiles(parent)
        if abs(change_median - parent_median) > q3 - q1:
            return "gain", relative
    return "same", relative


def compare(spec: dict, parent: dict, change: dict) -> int:
    regressions = 0
    print(f"{'workload':<16} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for name in parent:
        for metric in spec["end_to_end"]:
            old = parent[name][metric["name"]]
            new = change[name][metric["name"]]
            result, relative = verdict(metric, old, new)
            regressions += result == "regression"
            print(f"{name:<16} {metric['name']:<16} "
                  f"{statistics.median(old):>12.6g} "
                  f"{statistics.median(new):>12.6g} {relative:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {result}")
        if sum(change[name]["failed"]) > sum(parent[name]["failed"]):
            print(f"{name:<16} more failed ops in the change")
            regressions += 1
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repeat the benchmark, or compare two checkouts")
    parser.add_argument("checkouts", nargs="*", metavar="DIR",
                        help="parent and change checkouts")
    parser.add_argument("--repeat", type=int, default=10, metavar="N",
                        help="runs (pairs) per workload")
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; run k uses seed + k")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 runs for quartiles")
    if len(args.checkouts) not in (0, 2):
        parser.error("give no checkout (repeat this one) or two")
    roots = [Path(d).resolve() for d in args.checkouts] or [ROOT]
    spec = load_spec(roots[0])
    if len(roots) == 2 and benchmark_files(roots[0], spec) != \
            benchmark_files(roots[1], load_spec(roots[1])):
        print("compare.py: the two checkouts hold different benchmarks",
              file=sys.stderr)
        return 2
    collected = collect(roots, spec, args.repeat, args.seed)
    for root, series in zip(roots, collected):
        summarize(spec, str(root), series)
    if len(roots) == 2:
        return compare(spec, *collected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
