"""Bounded-memory streaming telemetry: rotated sinks, span sampling.

The PR 1 tracer buffers every finished span in memory and dumps them at
process exit — fine for a 240-injection bench, fatal for the 10^5+
campaigns ROADMAP item 4 calls for.  This module replaces
dump-at-exit with *streaming*:

* :class:`RotatingJsonlSink` — an append-only JSONL writer that
  rotates at a byte budget and keeps a bounded number of rotated
  files, so both memory and disk stay O(1) in campaign length;
* :class:`HeadStrideSampler` — deterministic span sampling: the first
  ``head`` occurrences of every span name are kept, then every
  ``stride``-th after that.  The decision is a pure function of the
  span's per-name occurrence index in the merged stream, so the
  sampled set is identical for any ``REPRO_JOBS`` shard count (see
  DESIGN.md);
* :class:`SpanStream` — the consumer tying them together: it drains
  the tracer's finished-span buffer in batches (keeping it bounded),
  writes sampled records to the sink and periodically flushes live
  metrics / perf snapshots for the exposition endpoint.

Workers never stream: :func:`repro.runtime.capture.worker_setup` drops
the fork-inherited stream, workers ship their spans back as before,
and :func:`~repro.runtime.capture.merge_capture` pumps the parent's
stream after each shard-order merge — the single point that makes the
streamed record order equal to the serial order.

    from repro.obs import TELEMETRY, stream

    TELEMETRY.enable()
    span_stream = stream.SpanStream("results/stream").install()
    ...  # any campaign-scale workload
    span_stream.close()          # final pump + snapshot flush
"""

from __future__ import annotations

import json
import os
import pathlib

from .export import atomic_write_text
from .perf import PERF
from .telemetry import TELEMETRY, Telemetry

#: Default sink rotation budget: current file rotates past this size.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

#: Default number of rotated files kept next to the current one.
DEFAULT_MAX_FILES = 4

#: Default head / stride of the span sampler.
DEFAULT_HEAD = 64
DEFAULT_STRIDE = 32

#: Buffered spans that trigger an automatic pump.
DEFAULT_BATCH = 256

#: Pumps between live snapshot flushes.
DEFAULT_SNAPSHOT_EVERY = 8


class RotatingJsonlSink:
    """Append-only JSONL writer with size rotation and bounded files.

    ``path`` is the live file; rotation renames it to ``path.1`` (the
    previous ``path.1`` becomes ``path.2`` and so on) and drops
    anything past ``max_files``.  Writes are plain appends — a stream
    is durable at line granularity, not file granularity — and
    :meth:`close` flushes.  Content is deterministic when the records
    are, so rotation boundaries are too.
    """

    def __init__(self, path, max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES):
        if max_bytes <= 0 or max_files < 0:
            raise ValueError("max_bytes must be > 0, max_files >= 0")
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.records_written = 0
        self.bytes_written = 0
        self.rotations = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = self.path.open("w")
        self._size = 0

    def _rotated(self, index: int) -> pathlib.Path:
        return self.path.with_name(f"{self.path.name}.{index}")

    def _rotate(self) -> None:
        self._stream.close()
        oldest = self._rotated(self.max_files)
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 1, 0, -1):
            source = self._rotated(index)
            if source.exists():
                os.replace(source, self._rotated(index + 1))
        if self.max_files:
            os.replace(self.path, self._rotated(1))
        else:
            self.path.unlink()
        self._stream = self.path.open("w")
        self._size = 0
        self.rotations += 1

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        if self._size and self._size + len(line) > self.max_bytes:
            self._rotate()
        self._stream.write(line)
        self._size += len(line)
        self.records_written += 1
        self.bytes_written += len(line)

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()


class HeadStrideSampler:
    """Deterministic per-name span sampling: head, then every stride-th.

    The admit decision depends only on ``(name, per-name occurrence
    index)`` — no randomness, no clock, no process identity — which is
    what keeps the sampled span set identical across shard counts once
    shards merge in order.
    """

    def __init__(self, head: int = DEFAULT_HEAD,
                 stride: int = DEFAULT_STRIDE):
        if head < 0 or stride < 1:
            raise ValueError("head must be >= 0, stride >= 1")
        self.head = head
        self.stride = stride
        self._seen = {}

    def admit(self, name: str) -> bool:
        index = self._seen.get(name, 0)
        self._seen[name] = index + 1
        if index < self.head:
            return True
        return (index - self.head) % self.stride == self.stride - 1


class SpanStream:
    """Streams sampled finished spans to disk in O(1) memory.

    Installed on a :class:`~repro.obs.telemetry.Telemetry` facade it
    (a) registers a span-end listener that pumps whenever ``batch``
    spans have buffered, and (b) advertises itself as
    ``telemetry.stream`` so the parallel runtime pumps after every
    shard merge.  Each :meth:`pump` atomically drains the tracer's
    finished buffer, feeds the records through the sampler in order
    and appends the admitted ones to the rotating sink; every
    ``snapshot_every`` pumps (and on :meth:`close`) the current
    metrics registry and perf counters are flushed as live snapshot
    files — the artifacts ``scripts/obs_export.py`` exposes.
    """

    def __init__(self, directory, sampler: HeadStrideSampler = None,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES,
                 batch: int = DEFAULT_BATCH,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 telemetry: Telemetry = None):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.directory = pathlib.Path(directory)
        self.telemetry = telemetry if telemetry is not None else TELEMETRY
        self.sampler = sampler if sampler is not None \
            else HeadStrideSampler()
        self.sink = RotatingJsonlSink(self.directory / "spans.jsonl",
                                      max_bytes=max_bytes,
                                      max_files=max_files)
        self.batch = batch
        self.snapshot_every = max(0, snapshot_every)
        self.spans_seen = 0
        self.spans_sampled = 0
        self.pumps = 0
        self.high_water = 0
        self._pending = 0
        self._installed = False

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "SpanStream":
        if not self._installed:
            self.telemetry.tracer.add_listener(self._on_span_end)
            self.telemetry.stream = self
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.telemetry.tracer.remove_listener(self._on_span_end)
            if getattr(self.telemetry, "stream", None) is self:
                self.telemetry.stream = None
            self._installed = False

    def close(self) -> None:
        """Uninstall, drain what is left, flush snapshots, close files."""
        self.uninstall()
        self.pump()
        self.flush_snapshots()
        self.sink.close()

    # -- pumping -----------------------------------------------------------

    def _on_span_end(self, span) -> None:
        self._pending += 1
        if self._pending >= self.batch:
            self.pump()

    def pump(self) -> int:
        """Drain the tracer buffer through the sampler into the sink;
        returns how many records were drained.  Called automatically
        every ``batch`` finished spans and after every worker-shard
        merge; callers may also pump at their own checkpoints."""
        records = self.telemetry.tracer.drain_records()
        self._pending = 0
        if not records:
            return 0
        self.high_water = max(self.high_water, len(records))
        for record in records:
            if self.sampler.admit(record["name"]):
                self.sink.write(record)
                self.spans_sampled += 1
        self.spans_seen += len(records)
        self.pumps += 1
        if self.snapshot_every and \
                self.pumps % self.snapshot_every == 0:
            self.flush_snapshots()
        return len(records)

    def flush_snapshots(self) -> dict:
        """Atomically refresh the live snapshot files next to the span
        stream: ``metrics.json`` (registry snapshot) and
        ``perf_counters.json`` (counter file) — what a scrape of the
        future attestation service would serve."""
        self.sink.flush()
        paths = {}
        metrics_path = self.directory / "metrics.json"
        atomic_write_text(
            metrics_path,
            json.dumps(self.telemetry.metrics.snapshot(), indent=2,
                       sort_keys=True, default=str) + "\n")
        paths["metrics"] = metrics_path
        perf_path = self.directory / "perf_counters.json"
        atomic_write_text(
            perf_path,
            json.dumps(dict(PERF.snapshot()), indent=2,
                       sort_keys=True) + "\n")
        paths["perf"] = perf_path
        return paths
