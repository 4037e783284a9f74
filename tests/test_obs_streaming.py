"""Streaming telemetry, coverage maps and exposition (ISSUE 6).

Unit coverage for the campaign-scale observability layer: rotating
bounded sinks, deterministic head+stride span sampling, log-bucketized
coverage maps with shard-order merge, Prometheus text rendering with a
strict re-parser, and the operator-grade CLI error contracts of
``scripts/obs_export.py`` / ``trace_report.py`` / ``fault_report.py``
(one-line error, nonzero exit, never a traceback).
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs import (CoverageMap, HeadStrideSampler, PerfSnapshot,
                       RotatingJsonlSink, SpanStream, Telemetry,
                       log_bucket, signature)
from repro.obs.exposition import (parse_exposition, render,
                                  sanitize_name)

REPO_ROOT = pathlib.Path(__file__).parent.parent
SCRIPTS = REPO_ROOT / "scripts"


# -- log-bucketization and signatures ------------------------------------


def test_log_bucket_integers_exact():
    assert log_bucket(0) == 0
    assert log_bucket(1) == 1
    assert log_bucket(2) == 2
    assert log_bucket(3) == 2
    assert log_bucket(4) == 3
    assert log_bucket(1023) == 10
    assert log_bucket(1024) == 11
    assert log_bucket(-5) == -3


def test_log_bucket_floats_and_sign():
    assert log_bucket(0.0) == 0
    assert log_bucket(0.5) == 0
    assert log_bucket(0.25) == -1
    assert log_bucket(8.0) == 4
    assert log_bucket(-8.0) == -4


def test_signature_drops_zero_entries_and_sorts():
    vector = {"b.events": 5, "a.events": 0, "c.events": 1}
    assert signature(vector) == (("b.events", 3), ("c.events", 1))
    # same buckets => same signature, regardless of insertion order
    assert signature({"c.events": 1, "b.events": 7}) == \
        signature({"b.events": 4, "c.events": 1})


def test_signature_accepts_perf_snapshot():
    snap = PerfSnapshot({"x": 3}) - PerfSnapshot({"x": 1})
    assert signature(snap) == (("x", 2),)


# -- coverage maps -------------------------------------------------------


def test_coverage_observe_reports_novelty():
    cover = CoverageMap("m")
    assert cover.observe("g", {"e": 1}) is True
    assert cover.observe("g", {"e": 1}) is False       # same bucket
    assert cover.observe("g", {"e": 4}) is True        # new bucket
    assert cover.observe("other", {"e": 1}) is True    # new group
    assert cover.distinct() == 3
    assert cover.distinct("g") == 2
    assert cover.observations == 4


def test_coverage_merge_is_set_union_with_added_observations():
    left = CoverageMap("m")
    left.observe("g", {"e": 1})
    left.observe("g", {"e": 2})
    right = CoverageMap("m")
    right.observe("g", {"e": 2})
    right.observe("h", {"e": 1})
    left.merge(right)
    assert left.distinct("g") == 2
    assert left.distinct("h") == 1
    assert left.observations == 4
    # merging an exported dict works identically
    left.merge(right.to_dict())
    assert left.distinct() == 3
    assert left.observations == 6


def test_coverage_json_roundtrip_and_canonical_bytes(tmp_path):
    cover = CoverageMap("roundtrip")
    cover.observe("beta", {"z": 9, "a": 2})
    cover.observe("alpha", {"z": 1})
    path = tmp_path / "coverage_x.json"
    cover.write(path)
    assert json.loads(path.read_text()) == cover.to_dict()
    # canonical: groups and signatures sorted, byte-stable re-export
    assert json.loads(path.read_text())["groups"] == \
        cover.to_dict()["groups"]
    assert list(cover.to_dict()["groups"]) == ["alpha", "beta"]


def test_coverage_merge_order_independent():
    parts = []
    for offset in range(3):
        part = CoverageMap("m")
        for value in range(offset, 12, 3):
            part.observe("g", {"e": value})
        parts.append(part.to_dict())
    forward, backward = CoverageMap("m"), CoverageMap("m")
    for part in parts:
        forward.merge(part)
    for part in reversed(parts):
        backward.merge(part)
    assert forward.to_json() == backward.to_json()


# -- rotating sink -------------------------------------------------------


def _sink_files(sink) -> list:
    """Existing stream files, oldest first, live file last."""
    rotated = sorted(sink.path.parent.glob(sink.path.name + ".*"),
                     key=lambda path: -int(path.suffix[1:]))
    return rotated + ([sink.path] if sink.path.exists() else [])


def test_sink_rotates_at_byte_budget(tmp_path):
    sink = RotatingJsonlSink(tmp_path / "s.jsonl", max_bytes=200,
                             max_files=4)
    for index in range(40):
        sink.write({"index": index, "pad": "x" * 20})
    sink.close()
    assert sink.rotations > 0
    assert sink.records_written == 40
    files = _sink_files(sink)
    assert files[-1] == tmp_path / "s.jsonl"
    # every surviving file is valid JSONL and respects the byte budget
    for path in files:
        assert path.stat().st_size <= 200 + 60
        for line in path.read_text().splitlines():
            json.loads(line)


def test_sink_bounds_file_count(tmp_path):
    sink = RotatingJsonlSink(tmp_path / "s.jsonl", max_bytes=100,
                             max_files=2)
    for index in range(200):
        sink.write({"index": index})
    sink.close()
    assert len(_sink_files(sink)) <= 3          # live + max_files rotated
    assert len(list(tmp_path.iterdir())) <= 3
    # the newest records survive, the oldest were dropped
    survivors = [json.loads(line)["index"]
                 for path in _sink_files(sink)
                 for line in path.read_text().splitlines()]
    assert survivors == sorted(survivors)
    assert survivors[-1] == 199
    assert survivors[0] > 0


def test_sink_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError):
        RotatingJsonlSink(tmp_path / "s.jsonl", max_bytes=0)
    with pytest.raises(ValueError):
        RotatingJsonlSink(tmp_path / "s.jsonl", max_files=-1)


# -- head+stride sampler -------------------------------------------------


def test_sampler_head_then_stride():
    sampler = HeadStrideSampler(head=2, stride=3)
    decisions = [sampler.admit("a") for _ in range(11)]
    #             0     1     2      3      4     5      6      7     8
    assert decisions == [True, True, False, False, True, False, False,
                         True, False, False, True]


def test_sampler_is_per_name():
    sampler = HeadStrideSampler(head=1, stride=2)
    assert sampler.admit("a") is True
    assert sampler.admit("b") is True     # b has its own head
    assert sampler.admit("a") is False
    assert sampler.admit("a") is True     # a's stride, not b's
    assert sampler.admit("b") is False


def test_sampler_decision_is_pure_function_of_order():
    sequence = ["x", "y", "x", "x", "y", "x"] * 20
    first = HeadStrideSampler(head=3, stride=4)
    second = HeadStrideSampler(head=3, stride=4)
    assert [first.admit(name) for name in sequence] == \
        [second.admit(name) for name in sequence]


# -- span stream ---------------------------------------------------------


def test_span_stream_bounded_buffer_and_snapshots(tmp_path):
    telemetry = Telemetry(enabled=True)
    stream = SpanStream(tmp_path, telemetry=telemetry,
                        sampler=HeadStrideSampler(head=4, stride=8),
                        batch=16, snapshot_every=1)
    stream.install()
    telemetry.counter("work.items").inc(5)
    for index in range(200):
        with telemetry.span("work.unit", index=index):
            pass
        # the finished buffer never grows past one batch
        assert telemetry.tracer.finished_count() < 16
    stream.close()
    assert stream.spans_seen == 200
    assert stream.high_water <= 16
    # head(4) + every 8th of the remaining 196 spans
    assert stream.spans_sampled == 4 + (200 - 4) // 8
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == stream.spans_sampled
    assert all(json.loads(line)["name"] == "work.unit"
               for line in lines)
    # live snapshots flushed next to the stream
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["work.items"]["value"] == 5
    assert (tmp_path / "perf_counters.json").exists()
    # drained: nothing left buffered after close
    assert telemetry.tracer.finished_count() == 0
    assert telemetry.stream is None


def test_span_stream_uninstall_detaches_listener(tmp_path):
    telemetry = Telemetry(enabled=True)
    stream = SpanStream(tmp_path, telemetry=telemetry, batch=1)
    stream.install()
    with telemetry.span("before"):
        pass
    stream.close()
    with telemetry.span("after"):
        pass
    # the post-close span stays in the tracer, not the stream
    assert telemetry.tracer.finished_count() == 1
    assert stream.spans_seen == 1


# -- exposition ----------------------------------------------------------


def test_render_and_parse_roundtrip():
    metrics = {
        "faults.runs": {"type": "counter", "value": 7},
        "queue.depth": {"type": "gauge", "value": 2.5},
        "lat.ms": {"type": "histogram", "count": 3, "sum": 6.0,
                   "min": 1.0, "max": 3.0, "mean": 2.0,
                   "p50": 2.0, "p95": 3.0, "p99": 3.0},
    }
    perf = {"soc.bus.grants": 42}
    cover = CoverageMap("cmap")
    cover.observe("g1", {"e": 3})
    text = render(metrics=metrics, perf=perf,
                  coverage=[cover.to_dict()])
    families = parse_exposition(text)
    assert families["repro_faults_runs"][0] == ({}, 7.0)
    assert families["repro_queue_depth"][0] == ({}, 2.5)
    quantiles = {labels["quantile"]: value
                 for labels, value in families["repro_lat_ms"]}
    assert quantiles == {"0.5": 2.0, "0.95": 3.0, "0.99": 3.0}
    assert families["repro_lat_ms_count"][0] == ({}, 3.0)
    assert families["repro_perf_events_total"][0] == \
        ({"event": "soc.bus.grants"}, 42.0)
    assert ({"map": "cmap", "group": "g1"}, 1.0) in \
        families["repro_coverage_distinct"]


def test_render_escapes_label_values():
    text = render(perf={'evil"event\\with\nnewline': 1})
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    parse_exposition(text)                  # must stay parseable


def test_sanitize_name():
    assert sanitize_name("faults.outcome.silent-corruption") == \
        "repro_faults_outcome_silent_corruption"
    assert sanitize_name("already_ok") == "repro_already_ok"


def test_parse_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("this is not exposition text\n")
    with pytest.raises(ValueError):
        parse_exposition("repro_x{unclosed 1\n")
    with pytest.raises(ValueError):
        parse_exposition("repro_x not_a_number\n")


# -- CLI contracts (one-line errors, never tracebacks) -------------------


def _run_script(name, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd or REPO_ROOT)


def _assert_one_line_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert "Traceback" not in proc.stdout


def test_obs_export_happy_path_and_check(tmp_path):
    (tmp_path / "metrics.json").write_text(json.dumps(
        {"faults.runs": {"type": "counter", "value": 3}}))
    (tmp_path / "perf_counters.json").write_text(
        json.dumps({"soc.pmp.checks": 11}))
    cover = CoverageMap("campaign")
    cover.observe("g", {"e": 1})
    cover.write(tmp_path / "coverage_campaign.json")
    out = tmp_path / "exposition.txt"
    proc = _run_script(
        "obs_export.py",
        "--metrics", str(tmp_path / "metrics.json"),
        "--perf", str(tmp_path / "perf_counters.json"),
        "--coverage", str(tmp_path / "coverage_*.json"),
        "--out", str(out), "--check")
    assert proc.returncode == 0, proc.stderr
    families = parse_exposition(out.read_text())
    assert "repro_faults_runs" in families
    assert "repro_perf_events_total" in families
    assert "repro_coverage_distinct" in families


def test_obs_export_missing_everything_is_one_line_error(tmp_path):
    proc = _run_script(
        "obs_export.py",
        "--metrics", str(tmp_path / "nope.json"),
        "--perf", str(tmp_path / "nope2.json"),
        "--coverage", str(tmp_path / "coverage_*.json"),
        "--corpus", str(tmp_path / "adversary_corpus*.json"),
        "--audit", str(tmp_path / "*audit*.jsonl"))
    _assert_one_line_error(proc)


def test_obs_export_renders_adversary_corpus(tmp_path):
    corpus = tmp_path / "adversary_corpus.json"
    corpus.write_text(json.dumps({
        "schema_version": 1, "name": "adversary-corpus", "seed": 1,
        "entries": [
            {"family": "adv-bus", "outcome": "detected"},
            {"family": "adv-bus", "outcome": "detected"},
            {"family": "adv-task-flat",
             "outcome": "silent_corruption"},
        ]}))
    proc = _run_script(
        "obs_export.py",
        "--metrics", str(tmp_path / "nope.json"),
        "--perf", str(tmp_path / "nope2.json"),
        "--coverage", str(tmp_path / "coverage_*.json"),
        "--corpus", str(corpus), "--check")
    assert proc.returncode == 0, proc.stderr
    assert ('repro_adversary_corpus_entries{corpus="adversary-corpus"'
            ',family="adv-bus",outcome="detected"} 2') in proc.stdout
    assert 'outcome="silent_corruption"} 1' in proc.stdout


def test_obs_export_malformed_input_is_one_line_error(tmp_path):
    (tmp_path / "metrics.json").write_text("{not json")
    proc = _run_script("obs_export.py",
                       "--metrics", str(tmp_path / "metrics.json"),
                       "--perf", str(tmp_path / "nope.json"))
    _assert_one_line_error(proc)


def test_trace_report_missing_trace_is_one_line_error(tmp_path):
    proc = _run_script("trace_report.py",
                       str(tmp_path / "missing.jsonl"))
    _assert_one_line_error(proc)


def test_trace_report_malformed_trace_is_one_line_error(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"name": "ok", "duration_s": 1.0, "depth": 0}\n'
                     "{broken json\n")
    proc = _run_script("trace_report.py", str(trace))
    _assert_one_line_error(proc)


def test_trace_report_malformed_metrics_is_one_line_error(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(
        {"name": "a", "span_id": 1, "parent_id": 0, "duration_s": 1.0,
         "depth": 0, "status": "ok", "start_s": 0.0, "end_s": 1.0})
        + "\n")
    bad = tmp_path / "metrics.json"
    bad.write_text("[1, 2")
    proc = _run_script("trace_report.py", str(trace),
                       "--metrics", str(bad))
    _assert_one_line_error(proc)


def test_trace_report_collapsed_renders_the_trace_events(tmp_path):
    trace = tmp_path / "trace.jsonl"
    span = {"depth": 0, "status": "ok", "start_s": 0.0, "end_s": 1.0,
            "duration_s": 1.0}
    trace.write_text("".join(json.dumps(record) + "\n" for record in (
        {**span, "name": "leaf", "span_id": 2, "parent_id": 1,
         "events": {"ev": 3}},
        {**span, "name": "root", "span_id": 1, "parent_id": 0,
         "events": {"ev": 4}})))
    proc = _run_script("trace_report.py", str(trace), "--collapsed")
    assert proc.returncode == 0, proc.stderr
    assert "collapsed profile: 2 stacks, 4 total events" in proc.stdout
    assert "root;leaf" in proc.stdout


def test_fault_report_missing_artifact_is_one_line_error(tmp_path):
    proc = _run_script("fault_report.py",
                       str(tmp_path / "missing.json"))
    _assert_one_line_error(proc)


def test_fault_report_malformed_json_is_one_line_error(tmp_path):
    artifact = tmp_path / "campaign.json"
    artifact.write_text("{definitely not json")
    proc = _run_script("fault_report.py", str(artifact))
    _assert_one_line_error(proc)


def test_fault_report_wrong_shape_is_one_line_error(tmp_path):
    artifact = tmp_path / "campaign.json"
    artifact.write_text(json.dumps({"some": "other", "json": True}))
    proc = _run_script("fault_report.py", str(artifact))
    _assert_one_line_error(proc)
