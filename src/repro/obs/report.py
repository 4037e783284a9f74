"""Trace summarisation: per-span-name aggregates from JSONL records.

*Cumulative* time is the wall-clock a span covers including children;
*self* time subtracts the direct children, i.e. where the time is
actually spent — the quantity that ranks hot paths.  Architectural
events (the ``events`` delta each span carries, see
:mod:`repro.obs.tracer`) get the same self attribution, both per span
name and per call path as flamegraph collapsed stacks
(:func:`collapsed`).  Because the counters are deterministic, two runs
of the same workload give byte-identical collapsed profiles.  The
latency distribution of a span name is read off its spans' durations
(p50/p95/p99, nearest rank).  This is the library behind
``scripts/trace_report.py``.
"""

from __future__ import annotations


def percentile(sorted_samples: list, fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, int(len(sorted_samples) * fraction + 0.5))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


def _events(record: dict) -> int:
    """All events a span counted, summed over kinds (0 when the span
    carries none)."""
    return sum((record.get("events") or {}).values())


def _self_events(records: list) -> list:
    """``(record, self events)`` per record that carries events: its
    events minus those of its direct children."""
    child_events = {}
    for record in records:
        parent = record.get("parent_id", 0)
        if parent:
            child_events[parent] = child_events.get(parent, 0) + \
                _events(record)
    return [(record, _events(record) -
             child_events.get(record["span_id"], 0))
            for record in records if record.get("events") is not None]


_PERCENTILES = (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99))


def summarize(records: list) -> dict:
    """Aggregate trace records into ``{span name: stats dict}``.

    Stats per name: ``count``, ``total_s`` (cumulative), ``self_s``,
    ``min_s``, ``max_s``, ``mean_s``, the duration percentiles
    ``p50_s``, ``p95_s`` and ``p99_s``, ``errors`` and ``self_events``
    (events summed over kinds, minus the direct children's).
    """
    child_time = {}
    for record in records:
        parent = record.get("parent_id", 0)
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + \
                record["duration_s"]
    summary = {}
    durations = {}
    for record in records:
        stats = summary.setdefault(record["name"], {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0,
            "self_events": 0})
        duration = record["duration_s"]
        durations.setdefault(record["name"], []).append(duration)
        stats["count"] += 1
        stats["total_s"] += duration
        stats["self_s"] += duration - child_time.get(
            record["span_id"], 0.0)
        if record.get("status") == "error":
            stats["errors"] += 1
    for name, stats in summary.items():
        ordered = sorted(durations[name])
        stats["min_s"], stats["max_s"] = ordered[0], ordered[-1]
        stats["mean_s"] = stats["total_s"] / stats["count"]
        for key, fraction in _PERCENTILES:
            stats[key] = percentile(ordered, fraction)
    for record, events in _self_events(records):
        summary[record["name"]]["self_events"] += events
    return summary


def collapsed(records: list) -> str:
    """Flamegraph collapsed-stack text (``a;b;c <count>``, one line per
    call path): self events summed over all kinds, paths taken from the
    ``parent_id`` chain, sorted by path, zero lines dropped."""
    by_id = {record["span_id"]: record for record in records}
    paths = {}

    def path(record) -> tuple:
        span_id = record["span_id"]
        if span_id not in paths:
            parent = by_id.get(record.get("parent_id", 0))
            paths[span_id] = (path(parent) if parent else ()) + \
                (record["name"],)
        return paths[span_id]

    stacks = {}
    for record, events in _self_events(records):
        key = path(record)
        stacks[key] = stacks.get(key, 0) + events
    return "".join(f"{';'.join(key)} {value}\n"
                   for key, value in sorted(stacks.items()) if value > 0)


def format_report(summary: dict, top: int = 20) -> str:
    """Render a summary as an aligned text table, the top-N spans by
    cumulative time."""
    ordered = sorted(summary.items(),
                     key=lambda item: -item[1]["total_s"])[:top]

    header = ["span", "count", "total s", "self s", "mean s", "p50 s",
              "p95 s", "p99 s", "max s", "self events"]
    rows = [[name, str(stats["count"]),
             *(f"{stats[key]:.6f}" for key in (
                 "total_s", "self_s", "mean_s", "p50_s", "p95_s", "p99_s",
                 "max_s")),
             str(stats["self_events"])]
            for name, stats in ordered]
    widths = [max(len(header[i]), max((len(r[i]) for r in rows),
                                      default=0))
              for i in range(len(header))]
    lines = [f"top {len(rows)} spans by cumulative time", ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
