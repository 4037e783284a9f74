"""Unit tests for the observability primitives (ISSUE 1 tentpole)."""

import pytest

from repro.obs import (Telemetry, Tracer, read_jsonl, summarize,
                       write_jsonl, format_report, atomic_write_text)
from repro.obs.report import percentile
from repro.obs.telemetry import _NULL_SPAN

from helpers import reset_telemetry


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def telemetry():
    return Telemetry(enabled=True)


# -- spans ---------------------------------------------------------------


def test_span_nesting_parent_and_depth(telemetry):
    with telemetry.span("outer") as outer:
        with telemetry.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.depth == 1
        assert outer.depth == 0
    records = telemetry.tracer.snapshot()
    assert [r["name"] for r in records] == ["inner", "outer"]


def test_span_timing_with_fake_clock():
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("a"):        # start at t=0, end at t=3
        with tracer.span("b"):    # start at t=1, end at t=2
            pass
    by_name = {s.name: s for s in tracer.finished}
    assert by_name["b"].duration_s == 1.0
    assert by_name["a"].duration_s == 3.0
    assert by_name["a"].duration_s >= by_name["b"].duration_s


def test_span_error_status(telemetry):
    with pytest.raises(ValueError):
        with telemetry.span("boom"):
            raise ValueError("x")
    (record,) = telemetry.tracer.snapshot()
    assert record["status"] == "error"
    # The stack unwound: a next span is a root again.
    with telemetry.span("after") as span:
        assert span.parent_id == 0


def test_span_attrs_and_set_attr(telemetry):
    with telemetry.span("s", template="aes") as span:
        span.set_attr("explored", 1440)
    (record,) = telemetry.tracer.snapshot()
    assert record["attrs"] == {"template": "aes", "explored": 1440}


# -- no-op mode ----------------------------------------------------------


def test_disabled_telemetry_produces_zero_events():
    telemetry = Telemetry(enabled=False)
    with telemetry.span("s", a=1):
        with telemetry.span("t"):
            pass
    assert telemetry.tracer.snapshot() == []


def test_disabled_returns_shared_null_span():
    telemetry = Telemetry(enabled=False)
    assert telemetry.span("a") is _NULL_SPAN
    assert telemetry.span("b", size=1) is _NULL_SPAN


def test_reset_clears_spans(telemetry):
    with telemetry.span("s"):
        pass
    reset_telemetry(telemetry)
    assert telemetry.tracer.snapshot() == []
    assert telemetry.enabled


# -- JSONL export round-trip ---------------------------------------------


def test_jsonl_round_trip(telemetry, tmp_path):
    with telemetry.span("outer", template="aes"):
        with telemetry.span("inner"):
            pass
    path = write_jsonl(telemetry.tracer.snapshot(),
                       tmp_path / "trace.jsonl")
    records = read_jsonl(path)
    assert records == telemetry.tracer.snapshot()
    assert [r["name"] for r in records] == ["inner", "outer"]


def test_export_writes_trace_only(telemetry, tmp_path):
    with telemetry.span("s") as span:
        span.set_attr("items", 2)
    path = telemetry.export(tmp_path)
    assert path == tmp_path / "trace.jsonl"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
    (record,) = read_jsonl(path)
    assert record["attrs"] == {"items": 2}


def test_atomic_write_text_replaces_without_temp_file(tmp_path):
    target = tmp_path / "profile.collapsed"
    target.write_text("old\n")
    atomic_write_text(target, "s 1\n")
    assert target.read_text() == "s 1\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_jsonl_stringifies_exotic_attrs(telemetry, tmp_path):
    class Odd:
        def __repr__(self):
            return "odd!"

    with telemetry.span("s", odd=Odd()):
        pass
    path = write_jsonl(telemetry.tracer.snapshot(),
                       tmp_path / "t.jsonl")
    (record,) = read_jsonl(path)
    assert record["attrs"]["odd"] == "odd!"


# -- report --------------------------------------------------------------


def test_summarize_self_vs_cumulative_time():
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("parent"):       # 0..5: cumulative 5
        with tracer.span("child"):    # 1..2
            pass
        with tracer.span("child"):    # 3..4
            pass
    summary = summarize([s.to_record() for s in tracer.finished])
    assert summary["parent"]["total_s"] == 5.0
    assert summary["parent"]["self_s"] == 3.0      # 5 - two 1s children
    assert summary["child"]["count"] == 2
    assert summary["child"]["total_s"] == 2.0
    assert summary["child"]["self_s"] == 2.0


def test_summarize_empty_trace():
    assert summarize([]) == {}
    assert "0 spans" in format_report({}, top=5)


def test_summarize_single_sample():
    tracer = Tracer(clock=FakeClock(step=2.0))
    with tracer.span("only"):
        pass
    summary = summarize([s.to_record() for s in tracer.finished])
    stats = summary["only"]
    assert stats["count"] == 1
    assert stats["total_s"] == stats["self_s"] == 2.0
    assert stats["min_s"] == stats["max_s"] == stats["mean_s"] == 2.0
    assert stats["p50_s"] == stats["p95_s"] == stats["p99_s"] == 2.0
    assert stats["errors"] == 0


def _timed_records(name: str, durations) -> list:
    return [{"name": name, "span_id": index + 1, "parent_id": 0,
             "duration_s": duration}
            for index, duration in enumerate(durations)]


def test_summarize_duration_percentiles():
    """Each span name's latency distribution, nearest rank over its
    spans' durations, in whatever order they finished."""
    durations = [float(value) for value in range(100, 0, -1)]  # 100..1
    stats = summarize(_timed_records("verify", durations))["verify"]
    assert stats["count"] == 100
    assert stats["min_s"] == 1.0 and stats["max_s"] == 100.0
    assert stats["mean_s"] == pytest.approx(50.5)
    assert stats["p50_s"] == 50.0
    assert stats["p95_s"] == 95.0
    assert stats["p99_s"] == 99.0


def test_summarize_percentiles_per_name():
    """Two span names keep two distributions: a batch verify's
    durations never pool with a scalar verify's."""
    records = _timed_records("verify", [1.0, 2.0, 3.0]) + [
        {**record, "span_id": record["span_id"] + 3}
        for record in _timed_records("verify_many", [40.0, 50.0])]
    summary = summarize(records)
    assert summary["verify"]["p99_s"] == 3.0
    assert summary["verify_many"]["p50_s"] == 40.0
    assert summary["verify_many"]["p99_s"] == 50.0


def test_summarize_identical_durations_percentiles_collapse():
    stats = summarize(_timed_records("flat", [4.2] * 100))["flat"]
    assert stats["count"] == 100
    assert stats["mean_s"] == pytest.approx(4.2)
    assert stats["p50_s"] == stats["p95_s"] == stats["p99_s"] == 4.2


def test_summarize_percentiles_over_merged_worker_spans():
    """Spans shipped home from workers join the parent's distribution:
    the percentiles are nearest rank over the union, not a blend of
    per-worker summaries."""
    def shipped(durations):
        return [{"name": "lat", "span_id": index + 1, "parent_id": 0,
                 "depth": 0, "start_s": 0.0, "end_s": duration}
                for index, duration in enumerate(durations)]

    parent = Tracer()
    assert parent.merge_records(shipped([5.0, 1.0, 3.0])) == 3
    assert parent.merge_records(shipped([2.0, 2.0, 9.0, 4.0])) == 4
    stats = summarize(parent.snapshot())["lat"]
    assert stats["count"] == 7
    assert stats["min_s"] <= stats["p50_s"] <= stats["p95_s"] \
        <= stats["p99_s"] <= stats["max_s"]
    # nearest rank over [1, 2, 2, 3, 4, 5, 9]
    assert (stats["p50_s"], stats["p95_s"], stats["p99_s"]) == \
        (3.0, 9.0, 9.0)


def test_summarize_percentiles_rank_cumulative_durations():
    """A span's latency is its whole duration, children included: the
    percentiles rank ``duration_s``, never the self time."""
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("outer"):          # 0..3
        with tracer.span("inner"):      # 1..2
            pass
    stats = summarize(tracer.snapshot())["outer"]
    assert stats["self_s"] == 2.0
    assert stats["p50_s"] == stats["p99_s"] == stats["total_s"] == 3.0


def test_summarize_error_spans_stay_in_distribution():
    """A span that raised is counted as an error and its duration
    still ranks in its name's percentiles."""
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("op"):                     # 0..1
        pass
    with pytest.raises(ValueError):
        with tracer.span("op"):                 # 2..5
            with tracer.span("inner"):          # 3..4
                pass
            raise ValueError("x")
    stats = summarize(tracer.snapshot())["op"]
    assert stats["count"] == 2 and stats["errors"] == 1
    assert stats["p50_s"] == 1.0
    assert stats["p99_s"] == stats["max_s"] == 3.0


def test_summarize_nested_deeper_than_three():
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("d0"):                    # 0..9  cumulative 9
        with tracer.span("d1"):                # 1..8  cumulative 7
            with tracer.span("d2"):            # 2..7  cumulative 5
                with tracer.span("d3"):        # 3..6  cumulative 3
                    with tracer.span("d4"):    # 4..5  cumulative 1
                        pass
    summary = summarize([s.to_record() for s in tracer.finished])
    # self time only subtracts *direct* children at every depth
    assert summary["d0"]["self_s"] == 9.0 - 7.0
    assert summary["d1"]["self_s"] == 7.0 - 5.0
    assert summary["d2"]["self_s"] == 5.0 - 3.0
    assert summary["d3"]["self_s"] == 3.0 - 1.0
    assert summary["d4"]["self_s"] == 1.0
    assert sum(s["self_s"] for s in summary.values()) == \
        summary["d0"]["total_s"]


def test_percentile_nearest_rank_edges():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([1.0, 2.0], 0.5) == 1.0


def test_percentile_empty_and_single_sample():
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.99) == 0.0
    assert percentile([7.0], 0.0) == 7.0
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([7.0], 1.0) == 7.0


def test_percentile_all_identical_samples():
    samples = [3.0] * 10
    for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert percentile(samples, fraction) == 3.0


def test_format_report_renders_percentiles(telemetry):
    with telemetry.span("alpha"):
        pass
    text = format_report(summarize(telemetry.tracer.snapshot()), top=5)
    assert "alpha" in text and "count" in text
    header = text.splitlines()[2]
    assert all(column in header for column in ("p50 s", "p95 s", "p99 s"))
