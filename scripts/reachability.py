#!/usr/bin/env python3
"""Reachability ledger: which ``src/repro`` functions production reaches.

Runs the production drivers (the six ``bench/run.py --quick`` workloads
plain and traced, ``benchmarks/``, every example, the ``scripts/``
commands check.sh and CI run) in a scratch copy under a
``sys.setprofile`` recorder, then tier-1 alone, and tags each ``def``
``prod``, ``test-only`` or ``none``::

    python scripts/reachability.py          # rewrite reachability.txt
    python scripts/reachability.py --check  # no tier-1; exit 1 on an
    # unreached def not named in reachability_allow.txt (with the
    # production condition that reaches it)
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "reachability.txt"
ALLOWLIST = ROOT / "scripts" / "reachability_allow.txt"

#: Imported at start-up by every interpreter the recorder launches.  The
#: hook is pinned (pytest-benchmark clears it around ``pedantic``), and
#: ``os._exit`` dumps too (forked pool workers leave through it).
SITECUSTOMIZE = '''\
import atexit, os, sys, threading
_seen = {}
def _hook(frame, event, arg):
    if event == "call":
        _seen[id(frame.f_code)] = frame.f_code
def _dump():
    codes = list(_seen.values())
    path = os.path.join(os.environ["REACH_DUMP"], f"{os.getpid()}.txt")
    with open(path, "a") as out:
        out.writelines(f"{c.co_filename}:{c.co_qualname}\\n" for c in codes)
def _exit(code, _real=os._exit):
    _dump()
    _real(code)
sys.setprofile(_hook)
threading.setprofile(_hook)
sys.setprofile = lambda function: None
os._exit = _exit
atexit.register(_dump)
'''

PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider")
FAST_BENCHES = ("fig1_cim_clustering", "fig3_rtos_pmp", "framework",
                "fault_campaign", "table1_dse_runtime", "crypto_primitives",
                "crypto_batch", "cim_passive", "cim_higher_order",
                "attestation_service", "obs_overhead", "local_search")
R = "benchmarks/results/"
SCRIPTS = (
    f"fault_report.py {R}fault_campaign.json --by scenario --worst 5",
    f"adversary_report.py --run --seed 2026 --generations 3 --population 32"
    f" --out {R}adversary_smoke.json --corpus-out"
    f" {R}adversary_smoke_corpus.json --audit-out"
    f" {R}adversary_smoke_audit.jsonl",
    f"adversary_report.py --replay {R}adversary_smoke_corpus.json"
    " --replay-limit 8",
    f"audit_report.py {R}adversary_smoke_audit.jsonl --verify",
    f"trace_report.py {R}trace.jsonl --collapsed --top 15",
    "bench_history.py",
    # the ones only CI runs
    "bench_history.py --no-record --check --trend --wall-threshold 3.0",
    f"adversary_report.py {R}adversary_campaign.json",
    f"audit_report.py {R}audit.jsonl")


def production_drivers():
    """``(extra_env, argv)`` for each driver, run from the repo root."""
    py = sys.executable
    for workload in ("attest-fresh", "attest-steady", "dse-exhaustive",
                     "dse-local", "fault-campaign", "cim-attack"):
        for trace in ("0", "1"):
            yield {}, [py, "bench/run.py", "--workload", workload,
                       "--quick", "--trace", trace]
    yield {}, [*PYTEST, "benchmarks"]
    yield ({"REPRO_TELEMETRY": "1", "REPRO_PERF": "1"},
           [*PYTEST, *(f"benchmarks/bench_{b}.py" for b in FAST_BENCHES)])
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield {}, [py, f"examples/{example.name}"]
    for command in SCRIPTS:
        script, *args = command.split()
        yield {}, [py, f"scripts/{script}", *args]


def record(drivers, src: Path, cwd: Path) -> set:
    """``relpath:qualname`` of every function under ``src`` that runs
    while ``drivers`` (``(extra_env, argv)`` pairs) execute in ``cwd``."""
    with tempfile.TemporaryDirectory() as scratch:
        hook, dump = Path(scratch, "hook"), Path(scratch, "dump")
        for directory in (hook, dump):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ, REACH_DUMP=str(dump),
                   PYTHONPATH=os.pathsep.join([str(hook), str(src)]))
        for extra, argv in drivers:
            started = time.perf_counter()
            code = subprocess.run(argv, cwd=cwd, env={**env, **extra},
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            print(f"  {time.perf_counter() - started:6.1f}s exit {code}  "
                  f"{' '.join(argv[1:])}", flush=True)
        prefix = f"{src.resolve()}{os.sep}"
        return {line[len(prefix):] for path in dump.iterdir()
                for line in path.read_text().splitlines()
                if line.startswith(prefix)}


def defined_functions(src: Path) -> dict:
    """``relpath:qualname`` -> body lines, for every ``def`` in ``src``."""
    found = {}

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}:{prefix}{child.name}"
                found[key] = found.get(key, 0) + \
                    child.end_lineno - child.lineno + 1
                walk(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, rel, f"{prefix}{child.name}."
                     if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(src.glob("repro/**/*.py")):
        rel = path.relative_to(src).as_posix()
        walk(ast.parse(path.read_text(), filename=str(path)), rel, "")
    return found


def allowlist() -> dict:
    """``relpath:qualname`` -> the production condition that reaches it."""
    return dict(line.split(None, 1)
                for line in ALLOWLIST.read_text().splitlines()
                if line.strip() and not line.startswith("#"))


def main(argv) -> int:
    check = argv == ["--check"]
    if argv and not check:
        sys.exit(__doc__)
    functions, allowed = defined_functions(ROOT / "src"), allowlist()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch).resolve() / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".benchmarks", ".hypothesis", "out"))
        print("production drivers:", flush=True)
        prod = record(production_drivers(), copy / "src", copy)
        tested = set()
        if not check:
            print("tier-1:", flush=True)
            tested = record([({}, [*PYTEST, "tests"])], copy / "src", copy)
    lines, unallowed, totals = [], [], {}
    for key in sorted(functions):
        tag = "prod" if key in prod else \
            "test-only" if key in tested else "none"
        count, body = totals.get(tag, (0, 0))
        totals[tag] = (count + 1, body + functions[key])
        reason = allowed.get(key)
        if tag != "prod" and reason is None:
            unallowed.append(key)
        note = f"  # {reason}" if tag != "prod" and reason else ""
        lines.append(f"{tag:<9} {key}{note}")
    for tag, (count, body) in sorted(totals.items()):
        print(f"{tag:<9} {count:5d} functions {body:6d} lines")
    for key in unallowed:
        print(f"unreached and not allowlisted: {key}")
    if not check:
        LEDGER.write_text("\n".join(lines) + "\n")
        print(f"wrote {LEDGER.relative_to(ROOT)}")
    return 1 if check and unallowed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
