"""Unit tests for the observability primitives (ISSUE 1 tentpole)."""

import json

import pytest

from repro.obs import (Telemetry, Tracer, MetricsRegistry, percentile,
                       read_jsonl, summarize, write_jsonl, format_report,
                       format_metrics, atomic_write_text)
from repro.obs.telemetry import _NULL_INSTRUMENT, _NULL_SPAN

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


# -- metrics -------------------------------------------------------------


def test_counter_gauge_basics(telemetry):
    telemetry.counter("c").inc()
    telemetry.counter("c").inc(4)
    telemetry.gauge("g").set(2.5)
    snap = telemetry.metrics_snapshot()
    assert snap["c"] == {"type": "counter", "value": 5}
    assert snap["g"] == {"type": "gauge", "value": 2.5}


def test_counter_rejects_negative(telemetry):
    with pytest.raises(ValueError):
        telemetry.counter("c").inc(-1)


def test_histogram_percentiles(telemetry):
    histogram = telemetry.histogram("h")
    for value in range(1, 101):       # 1..100
        histogram.observe(value)
    snap = telemetry.metrics_snapshot()["h"]
    assert snap["count"] == 100
    assert snap["min"] == 1 and snap["max"] == 100
    assert snap["mean"] == pytest.approx(50.5)
    assert snap["p50"] == 50
    assert snap["p95"] == 95
    assert snap["p99"] == 99


def test_percentile_nearest_rank_edges():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([1.0, 2.0], 0.5) == 1.0


def test_registry_type_conflict():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_timer_feeds_histogram():
    telemetry = Telemetry(enabled=True, clock=FakeClock(step=2.0))
    with telemetry.timer("t"):
        pass
    snap = telemetry.metrics_snapshot()["t"]
    assert snap["count"] == 1
    assert snap["p50"] == 2.0


# -- no-op mode ----------------------------------------------------------


def test_disabled_telemetry_produces_zero_events():
    telemetry = Telemetry(enabled=False)
    with telemetry.span("s", a=1):
        telemetry.counter("c").inc()
        with telemetry.timer("t"):
            pass
    assert telemetry.tracer.snapshot() == []
    assert telemetry.metrics_snapshot() == {}


def test_disabled_returns_shared_null_objects():
    telemetry = Telemetry(enabled=False)
    assert telemetry.span("a") is _NULL_SPAN
    assert telemetry.counter("a") is _NULL_INSTRUMENT
    assert telemetry.gauge("a") is _NULL_INSTRUMENT
    assert telemetry.histogram("a") is _NULL_INSTRUMENT


def test_reset_clears_spans_and_metrics(telemetry):
    with telemetry.span("s"):
        telemetry.counter("c").inc()
    reset_telemetry(telemetry)
    assert telemetry.tracer.snapshot() == []
    assert telemetry.metrics_snapshot() == {}
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


def test_export_writes_trace_and_metrics(telemetry, tmp_path):
    with telemetry.span("s"):
        telemetry.counter("c").inc(2)
    paths = telemetry.export(tmp_path)
    assert paths["trace"].exists() and paths["metrics"].exists()
    metrics = json.loads(paths["metrics"].read_text())
    assert metrics["c"]["value"] == 2


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
    assert "0 spans" in format_report({}, sort="self", top=5)


def test_summarize_single_sample():
    tracer = Tracer(clock=FakeClock(step=2.0))
    with tracer.span("only"):
        pass
    summary = summarize([s.to_record() for s in tracer.finished])
    stats = summary["only"]
    assert stats["count"] == 1
    assert stats["total_s"] == stats["self_s"] == 2.0
    assert stats["min_s"] == stats["max_s"] == stats["mean_s"] == 2.0
    assert stats["errors"] == 0


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


def test_histogram_all_identical_samples(telemetry):
    hist = telemetry.histogram("flat")
    for _ in range(100):
        hist.observe(4.2)
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["mean"] == pytest.approx(4.2)
    assert snap["p50"] == snap["p95"] == snap["p99"] == 4.2


def test_format_report_and_metrics_render(telemetry):
    with telemetry.span("alpha"):
        telemetry.counter("c").inc()
        telemetry.histogram("h").observe(1.0)
    text = format_report(summarize(telemetry.tracer.snapshot()),
                         sort="count", top=5)
    assert "alpha" in text and "count" in text
    metrics_text = format_metrics(telemetry.metrics_snapshot())
    assert "c" in metrics_text and "histogram" in metrics_text
    with pytest.raises(ValueError):
        format_report({}, sort="nope")


# -- histogram percentile edges (ISSUE 6 satellite) ----------------------


def test_histogram_empty_snapshot_has_no_percentiles(telemetry):
    snap = telemetry.histogram("never.observed").snapshot()
    assert snap == {"type": "histogram", "count": 0}
    assert "p50" not in snap and "p99" not in snap


def test_histogram_single_sample_percentiles_collapse(telemetry):
    hist = telemetry.histogram("one.sample")
    hist.observe(7.5)
    snap = hist.snapshot()
    assert snap["count"] == 1
    assert snap["min"] == snap["max"] == snap["mean"] == 7.5
    assert snap["p50"] == snap["p95"] == snap["p99"] == 7.5


def test_histogram_percentiles_monotone_under_merge_delta():
    """Shipping worker samples through delta_since/merge_delta must
    leave the merged distribution's percentiles exact and ordered —
    nearest-rank over the union, not an average of summaries."""
    parent = MetricsRegistry()
    for value in (5.0, 1.0, 3.0):
        parent.histogram("lat").observe(value)
    worker = MetricsRegistry()
    mark = worker.mark()
    for value in (2.0, 2.0, 9.0, 4.0):
        worker.histogram("lat").observe(value)
    parent.merge_delta(worker.delta_since(mark))
    snap = parent.histogram("lat").snapshot()
    assert snap["count"] == 7
    assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] \
        <= snap["max"]
    # nearest-rank over the union [1, 2, 2, 3, 4, 5, 9]
    assert snap["p50"] == 3.0
    assert snap["p95"] == 9.0
    assert snap["p99"] == 9.0


def test_histogram_merge_delta_all_equal_stays_degenerate():
    parent = MetricsRegistry()
    worker = MetricsRegistry()
    mark = worker.mark()
    for _ in range(25):
        worker.histogram("flat").observe(1.25)
    parent.merge_delta(worker.delta_since(mark))
    snap = parent.histogram("flat").snapshot()
    assert snap["count"] == 25
    assert snap["p50"] == snap["p95"] == snap["p99"] == 1.25
