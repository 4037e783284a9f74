"""Bench trajectory: persistent run history and the regression gate.

``BENCH_SUMMARY.json`` is one run; this module turns it into a
*trajectory*.  Every recorded run appends one JSONL entry (wall time +
perf counters per bench, schema-versioned) to
``benchmarks/results/bench_history.jsonl``; the gate compares the
latest run against the preceding runs and fails on regressions:

* **wall time** — noisy, so the baseline is the *median* of up to the
  last five prior runs, the threshold is generous, and benches below a
  minimum duration are exempt;
* **perf counters** — deterministic (same code + seed => same counts),
  so any growth beyond a small threshold is a real algorithmic change
  and fails even across machines.

Entries carry ``schema_version``; loaders *skip* mismatched entries
with a warning instead of crashing, so an old history file survives a
schema bump.  Each entry also carries ``summary_sha256``, the digest of
the summary it was made from, so a gate can tell whether the newest
entry is the run on disk or one committed earlier.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time

from .export import atomic_write_text

#: Bump when the entry layout changes incompatibly; old entries are
#: then skipped (with a warning) rather than misread.
SCHEMA_VERSION = 1

#: How many prior runs feed the wall-time baseline median.
BASELINE_RUNS = 5

DEFAULT_WALL_THRESHOLD = 0.50      # +50% over baseline median
DEFAULT_COUNTER_THRESHOLD = 0.10   # +10% over the previous run
DEFAULT_MIN_WALL_S = 0.05          # benches faster than this are noise


def summary_digest(summary: dict) -> str:
    """SHA-256 of a ``BENCH_SUMMARY.json`` payload's canonical JSON."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


def make_entry(summary: dict, run: int, timestamp: float = None) -> dict:
    """One history entry from a ``BENCH_SUMMARY.json`` payload."""
    benches = []
    for bench in summary.get("benches", []):
        record = {
            "name": bench["name"],
            "wall_time_s": bench["wall_time_s"],
            "status": bench.get("status", "passed"),
        }
        counters = bench.get("counters")
        if counters:
            record["counters"] = dict(sorted(counters.items()))
        benches.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "run": run,
        "recorded_at": round(time.time() if timestamp is None
                             else timestamp, 3),
        "session_wall_time_s": summary.get("session_wall_time_s"),
        "telemetry_enabled": summary.get("telemetry_enabled", False),
        "perf_enabled": summary.get("perf_enabled", False),
        "summary_sha256": summary_digest(summary),
        "benches": benches,
    }


def load_history(path) -> tuple:
    """``(entries, warnings)`` from a history JSONL file.

    Unparsable lines and entries whose ``schema_version`` differs from
    ``SCHEMA_VERSION`` are skipped, each producing one warning string
    — never an exception, so a schema bump does not strand old history
    files.

    """
    path = pathlib.Path(path)
    entries, warnings = [], []
    if not path.exists():
        return entries, warnings
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            warnings.append(f"{path}:{number}: unparsable entry "
                            "skipped")
            continue
        version = entry.get("schema_version")
        if version != SCHEMA_VERSION:
            warnings.append(
                f"{path}:{number}: schema_version {version!r} != "
                f"{SCHEMA_VERSION} — entry skipped")
            continue
        entries.append(entry)
    return entries, warnings


def append_entry(path, entry: dict) -> dict:
    """Append one entry to the history file; returns the entry.

    The append runs as an atomic whole-file rewrite (tmp +
    ``os.replace``, like every other artifact) rather than an ``"a"``
    open: an interrupted run can therefore never leave a truncated
    trailing line behind, which would otherwise cost one skipped-entry
    warning on every later load for the life of the history file.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = path.read_text() if path.exists() else ""
    if existing and not existing.endswith("\n"):
        existing += "\n"
    atomic_write_text(
        path, existing + json.dumps(entry, sort_keys=True) + "\n")
    return entry


def append_run(path, summary: dict, timestamp: float = None) -> dict:
    """Record ``summary`` as the next run of the trajectory."""
    entries, _ = load_history(path)
    run = max((e.get("run", 0) for e in entries), default=0) + 1
    return append_entry(path, make_entry(summary, run, timestamp))


# -- deltas and the gate -------------------------------------------------


def _bench_index(entry: dict) -> dict:
    return {bench["name"]: bench for bench in entry.get("benches", [])}


def _median(values: list) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def detect_regressions(entries: list,
                       wall_threshold: float = DEFAULT_WALL_THRESHOLD
                       ) -> list:
    """Regressions of the last entry versus the runs before it.

    Returns ``[{bench, metric, kind, baseline, current, ratio}]``;
    empty when fewer than two runs are recorded or nothing regressed.
    """
    if len(entries) < 2:
        return []
    current = _bench_index(entries[-1])
    previous_entries = entries[:-1]
    latest_previous = _bench_index(previous_entries[-1])
    regressions = []
    for name, bench in sorted(current.items()):
        if bench.get("status") == "failed":
            continue                  # test failures gate elsewhere
        # Wall time vs the median of recent prior runs.
        prior_walls = [
            b["wall_time_s"]
            for entry in previous_entries[-BASELINE_RUNS:]
            for b in [_bench_index(entry).get(name)]
            if b is not None and b.get("status") != "failed"]
        if prior_walls:
            baseline = _median(prior_walls)
            wall = bench["wall_time_s"]
            if baseline >= DEFAULT_MIN_WALL_S and \
                    wall > baseline * (1.0 + wall_threshold):
                regressions.append({
                    "bench": name, "metric": "wall_time_s",
                    "kind": "wall", "baseline": round(baseline, 6),
                    "current": round(wall, 6),
                    "ratio": round(wall / baseline, 3)})
        # Counters vs the immediately preceding run (deterministic).
        base_counters = latest_previous.get(name, {}).get("counters")
        for event, count in sorted(
                (bench.get("counters") or {}).items()):
            base = (base_counters or {}).get(event)
            if not base or base <= 0:
                continue              # new or absent counter: no gate
            if count > base * (1.0 + DEFAULT_COUNTER_THRESHOLD):
                regressions.append({
                    "bench": name, "metric": event, "kind": "counter",
                    "baseline": base, "current": count,
                    "ratio": round(count / base, 3)})
    return regressions


def format_regressions(regressions: list) -> str:
    if not regressions:
        return "no regressions\n"
    lines = [f"{len(regressions)} regression(s) over threshold:", ""]
    for item in regressions:
        lines.append(
            f"  {item['bench']}: {item['metric']} "
            f"{item['baseline']} -> {item['current']} "
            f"(x{item['ratio']}, {item['kind']})")
    return "\n".join(lines) + "\n"


def trend_table(entries: list) -> str:
    """Wall-time trend per bench over the last 8 runs, with the
    final column showing the latest run's delta versus the run before."""
    if not entries:
        return "bench history: no recorded runs\n"
    window = entries[-8:]

    names = sorted({bench["name"] for entry in window
                    for bench in entry.get("benches", [])})
    header = ["bench"] + [f"run {entry.get('run', '?')}"
                          for entry in window] + ["last Δ"]
    rows = []
    for name in names:
        walls = []
        for entry in window:
            bench = _bench_index(entry).get(name)
            walls.append(bench["wall_time_s"] if bench else None)
        cells = [f"{w:.3f}s" if w is not None else "-" for w in walls]
        present = [w for w in walls if w is not None]
        if len(present) >= 2 and present[-2] > 0:
            delta = (present[-1] - present[-2]) / present[-2]
            cells.append(f"{delta:+.1%}")
        else:
            cells.append("-")
        rows.append([name] + cells)
    widths = [max(len(header[i]), max((len(r[i]) for r in rows),
                                      default=0))
              for i in range(len(header))]
    lines = [f"bench trajectory ({len(entries)} recorded run(s), "
             f"showing last {len(window)})", ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
