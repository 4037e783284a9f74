#!/usr/bin/env python
"""Record bench runs into a history file and gate on regressions.

Default behaviour appends the current ``BENCH_SUMMARY.json`` to
``benchmarks/results/bench_history.jsonl`` and prints a trend table
over the recorded runs:

    PYTHONPATH=src python scripts/bench_history.py

CI runs a second, *recording-free* invocation as its regression gate,
so a perf failure is distinguishable from a test failure:

    python scripts/bench_history.py --no-record --check --trend \
        --wall-threshold 3.0

``--check`` exits 1 when the newest entry regresses against history,
or when that entry was not recorded from the summary on disk (so two
committed entries are never judged as the change under test):
wall time against the median of up to the last 5 prior runs of the
same bench (a noisy, machine-dependent metric — hence the generous
default threshold and the min-wall floor), architectural perf
counters against the immediately preceding run (deterministic, so
the default threshold is strict).

Every entry carries ``schema_version``; entries with a different
schema are skipped with a warning, never silently mixed into
baselines.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.obs import history  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_SUMMARY = REPO_ROOT / "BENCH_SUMMARY.json"
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "results" / \
    "bench_history.jsonl"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="append a bench run to the history file and "
                    "report run-over-run trends/regressions")
    parser.add_argument("--summary", type=pathlib.Path,
                        default=DEFAULT_SUMMARY,
                        help="BENCH_SUMMARY.json to record "
                             f"(default: {DEFAULT_SUMMARY})")
    parser.add_argument("--history", type=pathlib.Path,
                        default=DEFAULT_HISTORY,
                        help="bench_history.jsonl to append/read "
                             f"(default: {DEFAULT_HISTORY})")
    parser.add_argument("--no-record", action="store_true",
                        help="do not append the summary; only "
                             "report on existing history")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the newest run regresses "
                             "against history")
    parser.add_argument("--trend", action="store_true",
                        help="print the per-bench trend table "
                             "(implied unless --check-only usage)")
    parser.add_argument("--wall-threshold", type=float,
                        default=history.DEFAULT_WALL_THRESHOLD,
                        help="relative wall-time slowdown tolerated "
                             "vs the baseline median (default: "
                             f"{history.DEFAULT_WALL_THRESHOLD})")
    args = parser.parse_args(argv)

    if not args.no_record:
        if not args.summary.exists():
            parser.error(f"no such summary: {args.summary} "
                         "(run the benchmarks first, or pass "
                         "--no-record)")
        summary = json.loads(args.summary.read_text())
        entry = history.append_run(args.history, summary,
                                   timestamp=time.time())
        print(f"recorded run {entry['run']} "
              f"({len(entry['benches'])} benches) "
              f"-> {args.history}")

    entries, warnings = history.load_history(args.history)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not entries:
        print(f"{args.history}: no usable history entries")
        return 1 if args.check else 0

    if args.trend or not args.check:
        print()
        print(history.trend_table(entries))

    if args.check:
        newest = entries[-1]
        if not args.summary.exists() or newest.get("summary_sha256") != \
                history.summary_digest(json.loads(args.summary.read_text())):
            print(f"refusing to gate: the newest entry (run "
                  f"{newest.get('run')}) was not recorded from "
                  f"{args.summary}; record it first "
                  "(python scripts/bench_history.py)")
            return 1
        regressions = history.detect_regressions(
            entries, wall_threshold=args.wall_threshold)
        print()
        print(history.format_regressions(regressions))
        if regressions:
            return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
