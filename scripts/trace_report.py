#!/usr/bin/env python
"""Summarize a repro.obs JSONL trace from the command line.

    PYTHONPATH=src python scripts/trace_report.py \
        benchmarks/results/trace.jsonl --top 15

Prints the top spans by cumulative time, each with its self time and
its p50/p95/p99 duration.

With ``--collapsed`` the report additionally renders the trace's
collapsed-stack profile (:func:`repro.obs.collapsed`: self events per
span path, the ``profile.collapsed`` a bench session with telemetry
and perf counters writes) as a self-weight table with an inline bar
chart.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.obs import collapsed, format_report, read_jsonl, \
    summarize  # noqa: E402

BAR_WIDTH = 30


def _fail(message: str) -> int:
    """Operator-grade failure: one line on stderr, exit code 1 — a
    missing or corrupt artifact is a usage problem, not a traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def format_collapsed(text: str, top: int = 20) -> str:
    """Render collapsed-stack text as a ``path: weight`` table."""
    stacks = {path: int(weight) for path, weight in
              (line.rsplit(" ", 1) for line in text.splitlines())}
    if not stacks:
        return "collapsed profile: empty"
    total = sum(stacks.values()) or 1
    ranked = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    widest = max(len(path) for path, _ in ranked[:top])
    lines = [f"collapsed profile: {len(stacks)} stacks, "
             f"{total} total events",
             f"{'stack':<{widest}}  {'events':>12}  {'share':>6}"]
    for path, weight in ranked[:top]:
        bar = "#" * max(1, round(BAR_WIDTH * weight / total))
        lines.append(f"{path:<{widest}}  {weight:>12}  "
                     f"{weight / total:>6.1%}  {bar}")
    if len(ranked) > top:
        rest = sum(weight for _, weight in ranked[top:])
        lines.append(f"... {len(ranked) - top} more stacks "
                     f"({rest} events)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="summarize a repro.obs JSONL trace")
    parser.add_argument("trace", type=pathlib.Path,
                        help="path to a trace.jsonl file")
    parser.add_argument("--top", type=int, default=20,
                        help="number of span rows to print")
    parser.add_argument("--collapsed", action="store_true",
                        help="also render the self-event profile per "
                             "span path (collapsed stacks)")
    args = parser.parse_args(argv)

    if not args.trace.exists():
        return _fail(f"no such trace: {args.trace}")
    try:
        records = read_jsonl(args.trace)
        summary = summarize(records) if records else {}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return _fail(f"{args.trace}: malformed trace ({exc})")
    if not records:
        print(f"{args.trace}: empty trace (was telemetry enabled?)")
        return 1
    print(f"{args.trace}: {len(records)} spans, "
          f"{len(summary)} distinct names\n")
    print(format_report(summary, top=args.top))

    if args.collapsed:
        print()
        print(format_collapsed(collapsed(records), top=args.top))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:      # e.g. piped into ``head``
        sys.exit(0)
