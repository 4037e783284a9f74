"""Coverage maps and the report scripts' error contracts.

Unit coverage for log-bucketized coverage maps (signatures, novelty,
shard-order merge, canonical export) and the operator-grade CLI error
contracts of ``scripts/trace_report.py`` / ``fault_report.py``
(one-line error, nonzero exit, never a traceback).
"""

import json
import pathlib
import subprocess
import sys

from repro.obs import CoverageMap, PerfSnapshot, log_bucket, signature

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
    assert cover.to_dict()["groups"]["g"]["distinct"] == 2
    assert cover.observations == 4


def test_coverage_merge_is_set_union_with_added_observations():
    left = CoverageMap("m")
    left.observe("g", {"e": 1})
    left.observe("g", {"e": 2})
    right = CoverageMap("m")
    right.observe("g", {"e": 2})
    right.observe("h", {"e": 1})
    left.merge(right)
    assert left.to_dict()["groups"]["g"]["distinct"] == 2
    assert left.to_dict()["groups"]["h"]["distinct"] == 1
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


def test_trace_report_rejects_removed_metrics_flag(tmp_path):
    """``--metrics`` went with the metrics registry: argparse refuses
    it as a usage error instead of silently ignoring it."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(
        {"name": "a", "span_id": 1, "parent_id": 0, "duration_s": 1.0,
         "depth": 0, "status": "ok", "start_s": 0.0, "end_s": 1.0})
        + "\n")
    proc = _run_script("trace_report.py", str(trace),
                       "--metrics", str(tmp_path / "metrics.json"))
    assert proc.returncode == 2
    assert "unrecognized arguments: --metrics" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trace_report_prints_duration_percentiles(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(
        {"name": "a", "span_id": index, "parent_id": 0,
         "duration_s": float(index), "depth": 0, "status": "ok",
         "start_s": 0.0, "end_s": float(index)}) + "\n"
        for index in (3, 1, 2)))
    proc = _run_script("trace_report.py", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(line for line in lines if line.startswith("span "))
    row = next(line for line in lines if line.startswith("a "))
    cells = dict(zip(("p50 s", "p95 s", "p99 s"),
                     row.split()[5:8]))
    assert all(column in header for column in cells)
    assert cells == {"p50 s": "2.000000", "p95 s": "3.000000",
                     "p99 s": "3.000000"}


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
