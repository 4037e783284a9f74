"""Cross-subsystem observability: tracing, perf counters, benchmark
artifacts.

Zero-dependency instrumentation layer shared by every subsystem of the
reproduction.  Each observation has one record: a span carries a
region's wall time and the counts it produced (attrs), and
:data:`PERF` carries architectural events.

* :mod:`~repro.obs.tracer` — structured nested spans with JSONL export;
  each span carries the perf-counter delta counted while it ran,
* :mod:`~repro.obs.telemetry` — the global :data:`TELEMETRY` facade
  with an explicit no-op mode (disabled = one attribute check),
* :mod:`~repro.obs.perf` — the global :data:`PERF` architectural
  event-counter file (cycles, bus traffic, PMP checks, context
  switches, crypto invocations, fault injections) with snapshot/delta
  arithmetic,
* :mod:`~repro.obs.history` — the bench trajectory
  (``bench_history.jsonl``) and the run-over-run regression gate,
* :mod:`~repro.obs.coverage` — log-bucketized counter-vector coverage
  maps (novelty detection, shard-order merge, canonical export): the
  campaign-scale steering signal,
* :mod:`~repro.obs.audit` — the tamper-evident security audit ledger
  (canonical-JSON events, Keccak hash chain, Ed25519-signed
  checkpoints) behind the global :data:`AUDIT` facade
  (``REPRO_AUDIT=1``),
* :mod:`~repro.obs.detect` — deterministic windowed anomaly detectors
  streaming over the audit ledger; detections re-enter the ledger as
  typed ``obs.detect`` events,
* :mod:`~repro.obs.export` — atomic JSONL/text artifact persistence,
* :mod:`~repro.obs.report` — per-span aggregation (cumulative/self
  time, p50/p95/p99 durations and self events) and flamegraph-style
  collapsed stacks, behind ``scripts/trace_report.py``.

Quick use::

    from repro.obs import PERF, TELEMETRY, counting

    TELEMETRY.enabled = True
    with counting() as window:
        with TELEMETRY.span("my.phase", size=42) as span:
            span.set_attr("items", 1)
    assert window.delta().get("soc.pmp.checks", 0) >= 0
    TELEMETRY.export("out/")        # out/trace.jsonl

Telemetry and perf counting are **off by default**; enable per process
with ``REPRO_TELEMETRY=1`` / ``REPRO_PERF=1`` or per call site with
``TELEMETRY.enabled = True`` / :func:`counting`.  The facades are
single-process and take no locks: parallel runs fork workers, which
ship their spans and counts home to the parent
(:mod:`repro.runtime.capture`).
"""

from .audit import (AUDIT, AuditLedger, AuditVerificationError,
                    canonical_encode, chain_hash,
                    load_ledger_records, summarize_records,
                    verify_records)
from .coverage import CoverageMap, log_bucket, signature
from .detect import (AnomalyEngine, Detection, WindowThresholdDetector,
                     standard_detectors)
from .export import atomic_write_text, read_jsonl, write_jsonl
from .history import (SCHEMA_VERSION, append_entry, append_run,
                      detect_regressions, format_regressions,
                      load_history, make_entry, trend_table)
from .perf import (PERF, CountingWindow, PerfCounters, PerfSnapshot,
                   counting)
from .report import collapsed, format_report, summarize
from .telemetry import TELEMETRY, Telemetry
from .tracer import Span, Tracer

__all__ = [
    "TELEMETRY", "Telemetry",
    "PERF", "PerfCounters", "PerfSnapshot", "CountingWindow",
    "counting",
    "SCHEMA_VERSION", "make_entry", "append_entry", "append_run",
    "load_history", "detect_regressions", "format_regressions",
    "trend_table",
    "Span", "Tracer",
    "AUDIT", "AuditLedger", "AuditVerificationError",
    "canonical_encode", "chain_hash", "verify_records",
    "load_ledger_records", "summarize_records",
    "AnomalyEngine", "Detection", "WindowThresholdDetector",
    "standard_detectors",
    "CoverageMap", "log_bucket", "signature",
    "read_jsonl", "write_jsonl", "atomic_write_text",
    "summarize", "format_report", "collapsed",
]
