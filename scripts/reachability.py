#!/usr/bin/env python3
"""Reachability ledger: which ``src/repro`` functions and defaulted
parameters production reaches.

Runs the production drivers (the six ``bench/run.py --quick`` workloads
plain and traced, ``benchmarks/``, every example, the ``scripts/``
commands check.sh and CI run) in a scratch copy under a
``sys.setprofile`` recorder, then tier-1 alone.  Each ``def`` is tagged
``prod``, ``test-only`` or ``none`` by whether it ran, and each
defaulted parameter (``relpath:qualname(name=)``) by whether it arrived
with a value other than its default.  A call counts as production only
while no ``tests/`` frame is on its thread's stack, so a test oracle a
bench imports (``tests/crypto_reference.py``) reaches nothing
production.  It writes no ledger, and ``--check`` fails, when an
example, a ``bench/run.py`` workload or a ``*_report.py`` script exits
non-zero: a broken driver would silently shrink ``prod``.  The two
``pytest benchmarks`` drivers and the ``bench_history.py`` ones only
report their exits: under the profiler those depend on timing gates and
on the history file::

    python scripts/reachability.py          # rewrite reachability.txt
    python scripts/reachability.py --check  # no tier-1; exit 1 on an
    # unreached def or unset parameter not named in
    # reachability_allow.txt (with the reason it stays)
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
#: ``os._exit`` dumps too (forked pool workers leave through it).  A
#: code's kind is ``_OTHER``, ``_TEST`` or, under ``src``, the
#: ``(name, default)`` pairs production has not yet been seen to set;
#: a defaulted code's parameters are read only at its first bytecode
#: offset, so a resumed generator's rebound locals never count.
SITECUSTOMIZE = '''\
import atexit, gc, os, sys, threading, types
_SRC, _TESTS = os.environ["REACH_SRC"], os.environ["REACH_TESTS"]
with open(os.environ["REACH_DEFAULTED"]) as _file:
    _DEFAULTED = set(_file.read().split())
_OTHER, _TEST = "other", "test"
_kind, _start, _open = {}, {}, {}
_prod, _test, _lost = set(), set(), set()
_ident = threading.get_ident
def _function(frame):
    code, found = frame.f_code, frame.f_globals
    for part in code.co_qualname.split("."):
        found = getattr(found, "__dict__", found)
        found = found.get(part) if hasattr(found, "get") else None
    for found in (found, *(getattr(found, a, None) for a in
                           ("__func__", "fget", "fset", "func"))):
        while found is not None:
            if getattr(found, "__code__", None) is code:
                return found
            found = getattr(found, "__wrapped__", None)
    return next(ref for ref in gc.get_referrers(code)
                if isinstance(ref, types.FunctionType))
def _classify(frame):
    code = frame.f_code
    path = code.co_filename
    kind = _TEST if path.startswith(_TESTS) else \\
        _OTHER if not path.startswith(_SRC) else ()
    if kind == () and f"{path[len(_SRC):]}:{code.co_qualname}" in _DEFAULTED:
        try:
            function = _function(frame)
        except StopIteration:
            _lost.add(code)
            _kind[code] = kind
            return kind
        names = code.co_varnames[:code.co_argcount]
        positional = function.__defaults__ or ()
        kind = (*zip(names[len(names) - len(positional):], positional),
                *(function.__kwdefaults__ or {}).items())
        _start[code] = frame.f_lasti
    _kind[code] = kind
    return kind
def _differs(value, default):
    if value is default:
        return False
    try:
        return type(value) is not type(default) or not bool(value == default)
    except Exception:
        return True
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        kind = _kind.get(code)
        if kind is None:
            kind = _classify(frame)
        if kind is _OTHER:
            return
        thread = _ident()
        if kind is _TEST:
            _open[thread] = _open.get(thread, 0) + 1
            return
        seen = _test if _open.get(thread) else _prod
        seen.add(code)
        if kind and frame.f_lasti == _start[code]:
            values = frame.f_locals
            seen.update((code, name) for name, default in kind
                        if _differs(values[name], default))
        if seen is _prod:
            _kind[code] = tuple(pair for pair in kind
                                if (code, pair[0]) not in _prod) or _OTHER
    elif event == "return" and _kind.get(frame.f_code) is _TEST:
        _open[_ident()] -= 1
def _line(tag, seen):
    code, name = seen if type(seen) is tuple else (seen, None)
    suffix = "" if name is None else f"({name}=)"
    return f"{tag}\\t{code.co_filename}:{code.co_qualname}{suffix}\\n"
def _dump():
    path = os.path.join(os.environ["REACH_DUMP"], f"{os.getpid()}.txt")
    with open(path, "a") as out:
        out.writelines([*(_line("prod", s) for s in list(_prod)),
                        *(_line("test", s) for s in list(_test)),
                        *(_line("lost", s) for s in list(_lost))])
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
    """``(extra_env, argv, must_pass)`` for each driver, run from the
    repo root; a driver that must pass refuses the ledger when it exits
    non-zero (see the module docstring for which only report)."""
    py = sys.executable
    for workload in ("attest-fresh", "attest-steady", "dse-exhaustive",
                     "dse-local", "fault-campaign", "cim-attack"):
        for trace in ("0", "1"):
            yield {}, [py, "bench/run.py", "--workload", workload,
                       "--quick", "--trace", trace], True
    yield {}, [*PYTEST, "benchmarks"], False
    yield ({"REPRO_TELEMETRY": "1", "REPRO_PERF": "1"},
           [*PYTEST, *(f"benchmarks/bench_{b}.py" for b in FAST_BENCHES)],
           False)
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield {}, [py, f"examples/{example.name}"], True
    for command in SCRIPTS:
        script, *args = command.split()
        yield {}, [py, f"scripts/{script}", *args], \
            script != "bench_history.py"


def record(drivers, src: Path, cwd: Path) -> tuple:
    """``(production, under_tests)``: the keys of every function under
    ``src`` that runs, and every defaulted parameter set, while
    ``drivers`` (``(extra_env, argv, must_pass)`` triples) execute in
    ``cwd``; a call below a ``cwd/tests/`` frame counts under tests
    only.  Exits when a driver that must pass exits non-zero."""
    with tempfile.TemporaryDirectory() as scratch:
        hook, dump = Path(scratch, "hook"), Path(scratch, "dump")
        for directory in (hook, dump):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        defaulted = hook / "defaulted.txt"
        defaulted.write_text("".join(
            f"{key.partition('(')[0]}\n" for key in defined_parameters(src)))
        prefix = f"{src.resolve()}{os.sep}"
        env = dict(os.environ, REACH_DUMP=str(dump), REACH_SRC=prefix,
                   REACH_TESTS=f"{(cwd / 'tests').resolve()}{os.sep}",
                   REACH_DEFAULTED=str(defaulted),
                   PYTHONPATH=os.pathsep.join([str(hook), str(src)]))
        broken = []
        for extra, argv, must_pass in drivers:
            started = time.perf_counter()
            code = subprocess.run(argv, cwd=cwd, env={**env, **extra},
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            print(f"  {time.perf_counter() - started:6.1f}s exit {code}  "
                  f"{' '.join(argv[1:])}", flush=True)
            if code and must_pass:
                broken.append(" ".join(argv[1:]))
        if broken:
            raise SystemExit(f"no ledger: {'; '.join(broken)} exited "
                             "non-zero")
        seen = {"prod": set(), "test": set(), "lost": set()}
        for path in dump.iterdir():
            for line in path.read_text().splitlines():
                tag, key = line.split("\t")
                if key.startswith(prefix):
                    seen[tag].add(key[len(prefix):])
    for key in sorted(seen["lost"]):
        print(f"  defaults not found, parameters unread: {key}")
    return seen["prod"], seen["test"] - seen["prod"]


def _defs(src: Path):
    """``(relpath:qualname, node)`` for every ``def`` under ``src``."""
    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{rel}:{prefix}{child.name}", child
                yield from walk(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                yield from walk(child, rel, f"{prefix}{child.name}."
                                if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        yield from walk(ast.parse(path.read_text(), filename=str(path)),
                        rel, "")


def defined_functions(src: Path) -> dict:
    """``relpath:qualname`` -> body lines, for every ``def`` in ``src``."""
    found = {}
    for key, node in _defs(src):
        found[key] = found.get(key, 0) + node.end_lineno - node.lineno + 1
    return found


def defined_parameters(src: Path) -> set:
    """``relpath:qualname(name=)`` for every defaulted parameter of every
    ``def`` in ``src``: positional defaults and keyword-only ones."""
    found = set()
    for key, node in _defs(src):
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in
                      zip(args.kwonlyargs, args.kw_defaults) if default]
        found.update(f"{key}({arg.arg}=)" for arg in defaulted)
    return found


def allowlist() -> dict:
    """Ledger key -> the reason it is not reached or not set by
    production."""
    return dict(line.split(None, 1)
                for line in ALLOWLIST.read_text().splitlines()
                if line.strip() and not line.startswith("#"))


def tags(keys, prod: set, tested: set) -> dict:
    """Ledger key -> ``prod``, ``test-only`` or ``none``, in key order."""
    return {key: "prod" if key in prod else
            "test-only" if key in tested else "none"
            for key in sorted(keys)}


def main(argv) -> int:
    check = argv == ["--check"]
    if argv and not check:
        sys.exit(__doc__)
    src = ROOT / "src"
    functions, allowed = defined_functions(src), allowlist()
    keys = {**functions, **dict.fromkeys(defined_parameters(src), 0)}
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch).resolve() / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".benchmarks", ".hypothesis", "out"))
        print("production drivers:", flush=True)
        prod, tested = record(production_drivers(), copy / "src", copy)
        if not check:
            print("tier-1:", flush=True)
            tested = tested.union(*record([({}, [*PYTEST, "tests"], False)],
                                          copy / "src", copy))
    lines, unallowed, totals = [], [], {}
    for key, tag in tags(keys, prod, tested).items():
        kind = "functions" if key in functions else "parameters"
        count, body = totals.get((tag, kind), (0, 0))
        totals[tag, kind] = (count + 1, body + keys[key])
        reason = allowed.get(key)
        if tag != "prod" and reason is None:
            unallowed.append(key)
        note = f"  # {reason}" if tag != "prod" and reason else ""
        lines.append(f"{tag:<9} {key}{note}")
    for (tag, kind), (count, body) in sorted(totals.items()):
        lines_note = f" {body:6d} lines" if kind == "functions" else ""
        print(f"{tag:<9} {count:5d} {kind}{lines_note}")
    for key in unallowed:
        print(f"unreached and not allowlisted: {key}")
    if not check:
        LEDGER.write_text("\n".join(lines) + "\n")
        print(f"wrote {LEDGER.relative_to(ROOT)}")
    return 1 if check and unallowed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
