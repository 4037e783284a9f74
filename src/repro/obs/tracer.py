"""Structured span tracer: nested, JSONL-exportable.

A *span* is one named, timed region of execution.  Spans nest: the
tracer keeps a stack of open spans, so a span opened while another is
active records the outer span as its parent.  Finished spans accumulate
in an in-memory buffer (this is a laptop-scale reproduction, not a
distributed collector) and can be exported as one-JSON-object-per-line
records that :mod:`repro.obs.report` and ``scripts/trace_report.py``
consume.

Each span also carries the architectural events counted while it
ran: when the tracer's ``counters`` (default: the global
:data:`~repro.obs.perf.PERF`) are enabled at span start, the span's
cumulative counter delta is stored at its end.  Wall time and events
thus live on the same span tree, and worker spans bring their events
home with their records; :func:`repro.obs.report.collapsed` derives
the self-attributed profile from them.

The tracer takes an injectable ``clock`` so tests can assert exact
durations; production use keeps :func:`time.perf_counter`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from .perf import PERF


class Span:
    """One timed region.  Mutable while open, frozen facts once ended."""

    __slots__ = ("name", "span_id", "parent_id", "depth", "start_s",
                 "end_s", "attrs", "status", "events")

    def __init__(self, name: str, span_id: int, parent_id: int,
                 depth: int, start_s: float, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_s = start_s
        self.end_s = None
        self.attrs = attrs
        self.status = "ok"
        #: Counter snapshot at start while open; the cumulative event
        #: delta once ended (``None`` when counters were off at start).
        self.events = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def to_record(self) -> dict:
        """The JSONL wire format (plain JSON types only)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
            "events": self.events,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        span = cls(record["name"], record["span_id"],
                   record["parent_id"], record["depth"],
                   record["start_s"], dict(record.get("attrs", {})))
        span.end_s = record["end_s"]
        span.status = record.get("status", "ok")
        span.events = record.get("events")
        return span


class Tracer:
    """Collects spans; one instance per telemetry facade."""

    def __init__(self, clock=time.perf_counter, counters=None):
        self._clock = clock
        self._counters = counters if counters is not None else PERF
        self._ids = itertools.count(1)
        self._stack = []
        self.finished = []

    # -- span lifecycle ----------------------------------------------------

    def current_span(self) -> Span:
        stack = self._stack
        return stack[-1] if stack else None

    def start_span(self, name: str, **attrs) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(name=name, span_id=next(self._ids),
                    parent_id=parent.span_id if parent else 0,
                    depth=len(stack), start_s=self._clock(), attrs=attrs)
        if self._counters.enabled:
            span.events = self._counters.snapshot()
        stack.append(span)
        return span

    def end_span(self, span: Span, status: str) -> Span:
        if span.events is not None:
            span.events = self._counters.snapshot() - span.events
        span.end_s = self._clock()
        span.status = status
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:           # out-of-order end: unwind to it
            while stack and stack.pop() is not span:
                pass
        self.finished.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException:
            self.end_span(span, status="error")
            raise
        else:
            self.end_span(span, "ok")

    # -- access / export --------------------------------------------------

    def snapshot(self) -> list:
        """Finished spans as JSONL-ready records."""
        return [span.to_record() for span in self.finished]

    # -- worker shipping (the parallel executor's span merge) --------------

    def finished_count(self) -> int:
        return len(self.finished)

    def records_since(self, mark: int) -> list:
        """Records of spans finished after ``mark`` (a prior
        :meth:`finished_count` value) — what a pool worker ships back."""
        return [span.to_record() for span in self.finished[mark:]]

    def merge_records(self, records: list) -> int:
        """Adopt spans shipped back from a worker process.

        Every record gets a fresh span id from this tracer's counter so
        worker-local ids (which restart per process) cannot collide;
        parent links *within* the batch are remapped, and batch roots
        are attached under the caller's current span, so worker spans
        nest where the fan-out happened.
        Returns the number of spans adopted.
        """
        if not records:
            return 0
        current = self.current_span()
        parent_id = current.span_id if current is not None else 0
        base_depth = current.depth + 1 if current is not None else 0
        mapping = {}
        adopted = []
        for record in records:
            span = Span.from_record(record)
            span.span_id = next(self._ids)
            mapping[record["span_id"]] = span.span_id
            adopted.append((record["parent_id"], span))
        for original_parent, span in adopted:
            remapped = mapping.get(original_parent)
            # Workers start from a reset tracer, so their roots sit at
            # depth 0 and the whole batch re-bases by the same offset.
            span.parent_id = remapped if remapped is not None \
                else parent_id
            span.depth = base_depth + span.depth
        self.finished.extend(span for _, span in adopted)
        return len(adopted)

    def reset_worker(self) -> None:
        """Make a freshly forked worker's tracer pristine: drop spans
        inherited from the parent and the parent's open-span stack."""
        self.finished = []
        self._stack = []
