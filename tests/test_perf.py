"""Architectural perf counters, their per-span attribution, and the
bench-history regression gate."""

import json
import subprocess
import sys
import pathlib

import pytest

from repro.obs import (PERF, CountingWindow, PerfCounters, PerfSnapshot,
                       Span, Tracer, collapsed, counting, format_report,
                       summarize)
from repro.obs import history

REPO_ROOT = pathlib.Path(__file__).parent.parent


# -- PerfSnapshot arithmetic ---------------------------------------------


def test_snapshot_missing_events_read_zero():
    snap = PerfSnapshot({"a": 1})
    assert snap["a"] == 1
    assert snap["missing"] == 0
    assert "missing" not in snap          # __missing__ does not insert


def test_snapshot_subtraction_drops_zero_entries():
    after = PerfSnapshot({"a": 5, "b": 2, "c": 7})
    before = PerfSnapshot({"a": 3, "b": 2})
    delta = after - before
    assert delta == {"a": 2, "c": 7}
    assert isinstance(delta, PerfSnapshot)
    assert "b" not in delta               # zero delta dropped


def test_snapshot_addition_merges_and_drops_zero():
    one = PerfSnapshot({"a": 1, "x": -2})
    two = PerfSnapshot({"a": 2, "x": 2, "b": 3})
    total = one + two
    assert total == {"a": 3, "b": 3}
    assert isinstance(total, PerfSnapshot)


# -- env switches --------------------------------------------------------


@pytest.mark.parametrize("value, on", [
    (None, False), ("", False), ("0", False), ("off", False),
    ("false", False), ("1", True), ("on", True), ("true", True),
    ("yes", True), ("OFF", True), (" 0", True)])
def test_env_switch_truth_table(monkeypatch, value, on):
    from repro.obs.perf import env_enabled
    monkeypatch.delenv("REPRO_TEST_SWITCH", raising=False)
    if value is not None:
        monkeypatch.setenv("REPRO_TEST_SWITCH", value)
    assert env_enabled("REPRO_TEST_SWITCH") is on


# -- PerfCounters --------------------------------------------------------


def test_counters_disabled_by_default_and_sites_guard():
    counters = PerfCounters()
    assert not counters.enabled
    # sites are written `if PERF.enabled: PERF.inc(...)` — nothing
    # counts while disabled because the guard short-circuits.
    if counters.enabled:
        counters.inc("never")
    assert counters.snapshot() == {}


def test_counters_inc_count_snapshot_delta():
    counters = PerfCounters(enabled=True)
    counters.inc("a")
    counters.inc("a", 4)
    counters.inc("b", 2)
    assert counters.snapshot()["a"] == 5
    before = counters.snapshot()
    counters.inc("a")
    assert counters.delta_since(before) == {"a": 1}
    counters.reset()
    assert counters.snapshot() == {}
    assert counters.enabled               # reset keeps the switch


def test_counting_window_restores_switch_state():
    was_enabled = PERF.enabled
    PERF.enabled = False
    try:
        with counting() as window:
            assert PERF.enabled
            PERF.inc("test.inside")
            assert isinstance(window, CountingWindow)
        assert not PERF.enabled
        assert window.delta() == {"test.inside": 1}
        # nested: an already-enabled counter stays enabled afterwards
        PERF.enabled = True
        with counting():
            pass
        assert PERF.enabled
    finally:
        PERF.enabled = was_enabled


def test_global_counting_window_is_scoped_to_block():
    was_enabled = PERF.enabled
    with counting() as window:
        PERF.inc("test.event", 3)
    assert window.delta()["test.event"] == 3
    assert PERF.enabled == was_enabled


# -- span events and the collapsed profile ------------------------------


def test_profiler_self_vs_cumulative_attribution():
    """Spans carry cumulative events; the profile derived from their
    records attributes self events."""
    counters = PerfCounters(enabled=True)
    tracer = Tracer(counters=counters)
    with tracer.span("outer"):
        counters.inc("ev", 2)
        with tracer.span("inner"):
            counters.inc("ev", 5)
        counters.inc("ev", 1)
    inner, outer = tracer.snapshot()
    assert inner["events"] == {"ev": 5}
    assert outer["events"] == {"ev": 8}        # cumulative
    # self = cumulative 8 minus the child's cumulative 5
    summary = summarize(tracer.snapshot())
    assert summary["outer"]["self_events"] == 3
    assert summary["inner"]["self_events"] == 5
    assert collapsed(tracer.snapshot()) == "outer 3\nouter;inner 5\n"


def test_profiler_collapsed_round_trip():
    """The collapsed text, also after a record round trip."""
    counters = PerfCounters(enabled=True)
    tracer = Tracer(counters=counters)
    with tracer.span("a"):
        counters.inc("x", 2)
        with tracer.span("b"):
            counters.inc("x", 3)
        with tracer.span("quiet"):
            pass                          # zero self: omitted
    records = tracer.snapshot()
    assert collapsed(records) == "a 2\na;b 3\n"
    # the JSONL round trip keeps the events
    assert collapsed([Span.from_record(r).to_record()
                      for r in records]) == "a 2\na;b 3\n"
    assert "self events" in format_report(summarize(records))


def test_collapsed_sorts_by_path_tuple():
    counters = PerfCounters(enabled=True)
    tracer = Tracer(counters=counters)
    with tracer.span("tee.boot.verify"):
        counters.inc("ev")
    with tracer.span("tee.boot"):
        with tracer.span("tee.boot.sign"):
            counters.inc("ev")
    # ("tee.boot", ...) < ("tee.boot.verify",), although the joined
    # string "tee.boot.verify" < "tee.boot;tee.boot.sign"
    assert collapsed(tracer.snapshot()) == \
        "tee.boot;tee.boot.sign 1\ntee.boot.verify 1\n"


def test_spans_opened_while_counters_off_carry_no_events():
    counters = PerfCounters(enabled=False)
    tracer = Tracer(counters=counters)
    with tracer.span("before"):
        counters.enable()
        with tracer.span("during"):
            counters.inc("ev", 4)
    during, before = tracer.snapshot()
    assert before["events"] is None
    assert during["events"] == {"ev": 4}
    summary = summarize(tracer.snapshot())
    assert summary["before"]["self_events"] == 0
    assert collapsed(tracer.snapshot()) == "before;during 4\n"


# -- bench history -------------------------------------------------------


def _summary(benches):
    return {"session_wall_time_s": 1.0, "telemetry_enabled": False,
            "perf_enabled": True,
            "benches": [
                {"name": name, "wall_time_s": wall, "status": "passed",
                 "tests": 1, "counters": counters or {}}
                for name, wall, counters in benches]}


def test_make_entry_carries_schema_version():
    entry = history.make_entry(
        _summary([("bench_a", 0.5, {"soc.bus.cycles": 10})]), run=1,
        timestamp=123.0)
    assert entry["schema_version"] == history.SCHEMA_VERSION
    assert entry["run"] == 1
    assert entry["recorded_at"] == 123.0
    assert entry["benches"][0]["counters"] == {"soc.bus.cycles": 10}
    assert entry["summary_sha256"] == history.summary_digest(
        _summary([("bench_a", 0.5, {"soc.bus.cycles": 10})]))


def test_append_run_numbers_runs_sequentially(tmp_path):
    path = tmp_path / "hist.jsonl"
    first = history.append_run(path, _summary([("b", 0.1, None)]),
                               timestamp=1.0)
    second = history.append_run(path, _summary([("b", 0.1, None)]),
                                timestamp=2.0)
    assert (first["run"], second["run"]) == (1, 2)
    entries, warnings = history.load_history(path)
    assert [e["run"] for e in entries] == [1, 2]
    assert warnings == []


def test_load_history_skips_bad_schema_with_warning(tmp_path):
    path = tmp_path / "hist.jsonl"
    good = history.make_entry(_summary([("b", 0.1, None)]), run=1,
                              timestamp=1.0)
    stale = dict(good, schema_version=history.SCHEMA_VERSION + 1, run=2)
    path.write_text(json.dumps(good) + "\n" +
                    json.dumps(stale) + "\n" +
                    "{broken json\n")
    entries, warnings = history.load_history(path)
    assert [e["run"] for e in entries] == [1]
    assert len(warnings) == 2
    assert any("schema_version" in w for w in warnings)
    assert any("unparsable" in w for w in warnings)


def _entries(runs):
    """Build history entries from [(run, [(bench, wall, counters)])]."""
    return [history.make_entry(_summary(benches), run=run,
                               timestamp=float(run))
            for run, benches in runs]


def test_detect_regressions_needs_two_runs():
    only = _entries([(1, [("b", 1.0, None)])])
    assert history.detect_regressions(only) == []


def test_wall_regression_against_median_baseline():
    entries = _entries([
        (1, [("b", 1.0, None)]),
        (2, [("b", 1.1, None)]),
        (3, [("b", 0.9, None)]),
        (4, [("b", 2.0, None)]),          # vs median 1.0: +100%
    ])
    found = history.detect_regressions(entries, wall_threshold=0.5)
    assert [r["kind"] for r in found] == ["wall"]
    assert found[0]["bench"] == "b"
    assert found[0]["baseline"] == 1.0
    # generous threshold: no regression
    assert history.detect_regressions(entries, wall_threshold=1.5) == []


def test_wall_regression_ignores_sub_floor_benches():
    entries = _entries([
        (1, [("fast", 0.001, None)]),
        (2, [("fast", 0.01, None)]),      # 10x but under the floor
    ])
    assert history.detect_regressions(entries) == []


def test_counter_regression_vs_previous_run():
    entries = _entries([
        (1, [("b", 1.0, {"soc.bus.cycles": 100})]),
        (2, [("b", 1.0, {"soc.bus.cycles": 150,
                         "soc.pmp.checks": 7})]),
    ])
    found = history.detect_regressions(entries)
    assert [(r["kind"], r["metric"]) for r in found] == \
        [("counter", "soc.bus.cycles")]
    # the counter new in run 2 is not gated
    assert all(r["metric"] != "soc.pmp.checks" for r in found)


def test_failed_bench_is_not_gated():
    entries = _entries([(1, [("b", 1.0, None)]),
                        (2, [("b", 9.0, None)])])
    entries[-1]["benches"][0]["status"] = "failed"
    assert history.detect_regressions(entries) == []


def test_trend_table_renders_runs_and_delta():
    entries = _entries([(1, [("b", 1.0, None)]),
                        (2, [("b", 1.5, None)])])
    table = history.trend_table(entries)
    assert "run 1" in table and "run 2" in table
    assert "+50.0%" in table
    assert history.trend_table([]).startswith("bench history: no")


def test_format_regressions_text():
    assert history.format_regressions([]) == "no regressions\n"
    text = history.format_regressions([
        {"bench": "b", "metric": "wall_time_s", "kind": "wall",
         "baseline": 1.0, "current": 2.0, "ratio": 2.0}])
    assert "1 regression(s)" in text and "b: wall_time_s" in text


# -- bench_history.py CLI ------------------------------------------------


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_history.py")]
        + args, cwd=cwd, capture_output=True, text=True)


def test_cli_records_trends_and_gates_on_regression(tmp_path):
    summary_path = tmp_path / "BENCH_SUMMARY.json"
    history_path = tmp_path / "hist.jsonl"

    summary_path.write_text(json.dumps(_summary(
        [("bench_x", 1.0, {"soc.bus.cycles": 100})])))
    first = _run_cli(["--summary", str(summary_path),
                      "--history", str(history_path)], tmp_path)
    assert first.returncode == 0, first.stderr
    assert "recorded run 1" in first.stdout

    summary_path.write_text(json.dumps(_summary(
        [("bench_x", 1.05, {"soc.bus.cycles": 100})])))
    second = _run_cli(["--summary", str(summary_path),
                       "--history", str(history_path), "--check",
                       "--trend"], tmp_path)
    assert second.returncode == 0, second.stdout + second.stderr
    assert "recorded run 2" in second.stdout
    assert "run 1" in second.stdout and "run 2" in second.stdout
    assert "no regressions" in second.stdout

    # synthetic regression: counters +50% over the previous run
    summary_path.write_text(json.dumps(_summary(
        [("bench_x", 1.0, {"soc.bus.cycles": 150})])))
    third = _run_cli(["--summary", str(summary_path),
                      "--history", str(history_path), "--check"],
                     tmp_path)
    assert third.returncode == 1
    assert "soc.bus.cycles" in third.stdout

    # --no-record --check over the same history still fails the gate
    gate = _run_cli(["--summary", str(summary_path),
                     "--history", str(history_path), "--no-record",
                     "--check"], tmp_path)
    assert gate.returncode == 1
    assert "soc.bus.cycles" in gate.stdout


def test_cli_check_refuses_entry_not_recorded_from_summary(tmp_path):
    summary_path = tmp_path / "BENCH_SUMMARY.json"
    history_path = tmp_path / "hist.jsonl"
    for wall in (1.0, 1.0):
        summary_path.write_text(json.dumps(_summary(
            [("bench_x", wall, {"soc.bus.cycles": 100})])))
        assert _run_cli(["--summary", str(summary_path), "--history",
                         str(history_path)], tmp_path).returncode == 0
    # a later session wrote a new summary but stopped before recording
    summary_path.write_text(json.dumps(_summary(
        [("bench_x", 1.0, {"soc.bus.cycles": 100, "new": 1})])))
    gate = _run_cli(["--summary", str(summary_path), "--history",
                     str(history_path), "--no-record", "--check"],
                    tmp_path)
    assert gate.returncode == 1
    assert "refusing to gate" in gate.stdout
    assert "no regressions" not in gate.stdout
    # an entry recorded before entries carried a digest is refused too
    entries = [json.loads(line) for line in
               history_path.read_text().splitlines()]
    for entry in entries:
        del entry["summary_sha256"]
    history_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    summary_path.write_text(json.dumps(_summary(
        [("bench_x", 1.0, {"soc.bus.cycles": 100})])))
    legacy = _run_cli(["--summary", str(summary_path), "--history",
                       str(history_path), "--no-record", "--check"],
                      tmp_path)
    assert legacy.returncode == 1
    assert "refusing to gate" in legacy.stdout


def test_cli_check_gates_fresh_entry(tmp_path):
    summary_path = tmp_path / "BENCH_SUMMARY.json"
    history_path = tmp_path / "hist.jsonl"
    for cycles in (100, 100, 150):
        summary_path.write_text(json.dumps(_summary(
            [("bench_x", 1.0, {"soc.bus.cycles": cycles})])))
        assert _run_cli(["--summary", str(summary_path), "--history",
                         str(history_path)], tmp_path).returncode == 0
        gate = _run_cli(["--summary", str(summary_path), "--history",
                         str(history_path), "--no-record", "--check"],
                        tmp_path)
        assert "refusing" not in gate.stdout
        assert gate.returncode == (cycles > 100), gate.stdout
    assert "soc.bus.cycles" in gate.stdout


def test_cli_no_record_without_history(tmp_path):
    result = _run_cli(["--history", str(tmp_path / "none.jsonl"),
                       "--no-record"], tmp_path)
    assert result.returncode == 0
    assert "no usable history entries" in result.stdout
    gated = _run_cli(["--history", str(tmp_path / "none.jsonl"),
                      "--no-record", "--check"], tmp_path)
    assert gated.returncode == 1
