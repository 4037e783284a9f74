"""Shared helpers for the reproduction benchmarks.

Every bench regenerates one table or figure of the paper and writes the
reproduced rows to ``benchmarks/results/<name>.txt`` so the comparison
against the paper (EXPERIMENTS.md) is a saved artifact, not just
transient stdout.  Since ISSUE 1 each table is additionally persisted
as machine-readable ``results/<name>.json`` (title, header, rows), and
a session hook aggregates per-bench wall-clock times into
``BENCH_SUMMARY.json`` at the repo root — the perf trajectory of the
whole suite, trackable across PRs.

Run with ``REPRO_TELEMETRY=1`` to also capture a structured trace of
every instrumented subsystem; it is exported on session exit to
``results/trace.jsonl`` and summarized by ``scripts/trace_report.py``.

Run with ``REPRO_PERF=1`` to additionally count architectural events
(bus grants, PMP checks, context switches, crypto invocations, ...):
each bench's counter deltas land in its ``BENCH_SUMMARY.json`` entry,
the session totals in ``results/perf_counters.json``, and — when
telemetry is also on — every span carries the events counted while it
ran, and their self attribution per call path lands in
``results/profile.collapsed`` (flamegraph-compatible collapsed
stacks).  ``scripts/bench_history.py`` appends each summary to
``results/bench_history.jsonl`` and gates on run-over-run
regressions.

All artifacts are written atomically (tmp file + ``os.replace``) so
an interrupted session never leaves a truncated JSON behind.
"""

import json
import pathlib
import statistics
import sys
import time

import pytest

from repro.obs import PERF, TELEMETRY, PerfSnapshot, atomic_write_text, \
    collapsed

# The frozen crypto oracles (``crypto_reference``) and the per-memo
# never-hit baseline (``parity.never_hits``) live with the tests.
sys.path.append(str(pathlib.Path(__file__).parent.parent / "tests"))
from parity import never_hits  # noqa: E402,F401  (re-exported to benches)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY_PATH = pathlib.Path(__file__).parent.parent / \
    "BENCH_SUMMARY.json"

#: bench module stem -> {"wall_time_s", "tests", "failures", "skips"}
_bench_times = {}
#: bench module stem -> PerfSnapshot of architectural-event deltas
_bench_counters = {}
_session_started = None


@pytest.fixture(scope="session")
def report_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _json_cell(cell):
    """Keep JSON-native cell values; stringify everything else (numpy
    scalars, Path, ...) so artifacts never fail to serialize."""
    if isinstance(cell, (str, int, float, bool)) or cell is None:
        return cell
    return str(cell)


def write_table(report_dir, name: str, title: str, header: list,
                rows: list) -> str:
    """Format and persist one reproduced table; returns the text.

    Writes the aligned ``<name>.txt`` for humans and ``<name>.json``
    (title, header, rows) for tooling.
    """
    widths = [max(len(str(header[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(header))]
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(w)
                           for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"
    atomic_write_text(report_dir / f"{name}.txt", text)
    payload = {
        "name": name,
        "title": title,
        "header": [str(h) for h in header],
        "rows": [[_json_cell(c) for c in row] for row in rows],
    }
    atomic_write_text(report_dir / f"{name}.json",
                      json.dumps(payload, indent=2) + "\n")
    return text


def paired_rounds(arms: dict, rounds: int) -> dict:
    """``{name: [wall per round]}`` of ``rounds`` interleaved rounds.

    Each round runs every arm (a zero-argument callable) once, back to
    back, the first arm alternating between rounds.  On a shared guest
    single runs swing by a third, so best-of-N walls of two arms can
    come from different machine states; a round's runs share one, and
    :func:`median_ratio` of the paired walls reads the speedup."""
    names = list(arms)
    walls = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            arms[name]()
            walls[name].append(time.perf_counter() - start)
    return walls


def median_ratio(slow: list, fast: list) -> float:
    """The median of the per-round ratios ``slow / fast``."""
    return statistics.median(s / f for s, f in zip(slow, fast))


# -- per-bench wall-time aggregation (BENCH_SUMMARY.json) ----------------

def pytest_sessionstart(session):
    global _session_started
    _session_started = time.time()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Attribute architectural-event deltas to the running bench.

    Wraps the whole protocol (not just the call phase) so events from
    module-scoped fixtures — e.g. the fault campaign — are attributed
    to the bench whose setup ran them.
    """
    if not PERF.enabled:
        yield
        return
    before = PERF.snapshot()
    yield
    delta = PERF.snapshot() - before
    stem = pathlib.Path(item.nodeid.split("::")[0]).stem
    if stem.startswith("bench_") and delta:
        _bench_counters[stem] = \
            _bench_counters.get(stem, PerfSnapshot()) + delta


def pytest_runtest_logreport(report):
    """Accumulate call durations per bench module."""
    module = report.nodeid.split("::")[0]
    stem = pathlib.Path(module).stem
    if not stem.startswith("bench_"):
        return
    entry = _bench_times.setdefault(stem, {
        "wall_time_s": 0.0, "tests": 0, "failures": 0, "skips": 0})
    entry["wall_time_s"] += report.duration
    if report.when == "call":
        entry["tests"] += 1
        if report.skipped:
            entry["skips"] += 1
    if report.failed:
        entry["failures"] += 1


def _bench_status(entry) -> str:
    if entry["failures"]:
        return "failed"
    if entry["tests"] and entry["tests"] == entry["skips"]:
        return "skipped"
    return "passed"


def pytest_sessionfinish(session, exitstatus):
    if not _bench_times:
        return
    benches = [
        {"name": stem,
         "wall_time_s": round(entry["wall_time_s"], 6),
         "status": _bench_status(entry),
         "tests": entry["tests"],
         "counters": dict(_bench_counters.get(stem, {}))}
        for stem, entry in sorted(_bench_times.items())]
    summary = {
        "session_wall_time_s": round(time.time() - _session_started, 6)
        if _session_started else None,
        "telemetry_enabled": TELEMETRY.enabled,
        "perf_enabled": PERF.enabled,
        "benches": benches,
    }
    atomic_write_text(SUMMARY_PATH, json.dumps(summary, indent=2) + "\n")
    if TELEMETRY.enabled or PERF.enabled:
        RESULTS_DIR.mkdir(exist_ok=True)
    if PERF.enabled:
        atomic_write_text(
            RESULTS_DIR / "perf_counters.json",
            json.dumps(dict(PERF.snapshot()), indent=2,
                       sort_keys=True) + "\n")
    if PERF.enabled and TELEMETRY.enabled:
        atomic_write_text(RESULTS_DIR / "profile.collapsed",
                          collapsed(TELEMETRY.tracer.snapshot()))
    if TELEMETRY.enabled:
        TELEMETRY.export(RESULTS_DIR)
