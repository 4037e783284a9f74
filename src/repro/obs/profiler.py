"""Deterministic profiler: per-span architectural-event attribution.

Wall-clock profiles of a simulator are noise; the quantities that
reproduce run-over-run are the :mod:`~repro.obs.perf` event counters.
This profiler attributes counter *deltas* to spans — cycles and bus
traffic per span, not just seconds — as **self** events: everything
counted while the span ran, minus its direct children's share, i.e.
where the events were actually generated.

It is fed by a tracer, so every ``TELEMETRY.span(...)`` in the
instrumented code is attributed automatically::

    profiler.attach(TELEMETRY.tracer)
    ... run the workload with TELEMETRY + PERF enabled ...
    profiler.detach()

The aggregate is keyed by *call path* (the stack of span names), which
exports directly as flamegraph-style collapsed stacks
(``a;b;c <count>`` — one line per path, self-attributed), the format
``scripts/trace_report.py --collapsed`` and any standard flamegraph
tool consume.  Because the counters are deterministic, two runs of the
same workload produce byte-identical collapsed profiles.
"""

from __future__ import annotations

import threading

from .perf import PERF, PerfSnapshot


class _Frame:
    """One open span on the profiler's per-thread stack."""

    __slots__ = ("name", "span_id", "entry", "child")

    def __init__(self, name: str, span_id, entry: PerfSnapshot):
        self.name = name
        self.span_id = span_id
        self.entry = entry
        self.child = PerfSnapshot()


class Profiler:
    """Attributes perf-counter deltas to a stack of named spans."""

    def __init__(self, counters=None):
        self.counters = counters if counters is not None else PERF
        self._local = threading.local()
        self._lock = threading.Lock()
        self._paths = {}
        self._tracer = None

    # -- frame stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, span_id) -> None:
        self._stack().append(
            _Frame(name, span_id, self.counters.snapshot()))

    def _end(self, span_id) -> None:
        stack = self._stack()
        if not stack:
            return                      # span started before attach
        if stack[-1].span_id != span_id:
            if not any(f.span_id == span_id for f in stack):
                return                  # foreign span: ignore
            while stack and stack[-1].span_id != span_id:
                self._close(stack.pop(), stack)
        self._close(stack.pop(), stack)

    def _close(self, frame: _Frame, stack: list) -> None:
        cumulative = self.counters.snapshot() - frame.entry
        self_events = cumulative - frame.child
        path = tuple(f.name for f in stack) + (frame.name,)
        with self._lock:
            self._paths[path] = \
                self._paths.get(path, PerfSnapshot()) + self_events
        if stack:
            stack[-1].child = stack[-1].child + cumulative

    # -- tracer integration -----------------------------------------------

    @property
    def attached(self) -> bool:
        return self._tracer is not None

    def attach(self, tracer) -> "Profiler":
        """Mirror every span of ``tracer`` into this profiler."""
        if self._tracer is not None:
            raise RuntimeError("profiler already attached")
        tracer.add_start_listener(self._on_start)
        tracer.add_listener(self._on_end)
        self._tracer = tracer
        return self

    def detach(self) -> None:
        if self._tracer is None:
            return
        self._tracer.remove_start_listener(self._on_start)
        self._tracer.remove_listener(self._on_end)
        self._tracer = None

    def _on_start(self, span) -> None:
        self._begin(span.name, span.span_id)

    def _on_end(self, span) -> None:
        self._end(span.span_id)

    # -- reporting --------------------------------------------------------

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack text, self-attributed, summed
        over all events — the generic architectural-activity profile.
        Paths with zero self value are omitted.
        """
        with self._lock:
            paths = dict(self._paths)
        lines = []
        for path, events in sorted(paths.items()):
            value = events.total()
            if value > 0:
                lines.append(f"{';'.join(path)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path):
        """Persist :meth:`collapsed` output atomically; returns path."""
        from .export import atomic_write_text
        return atomic_write_text(path, self.collapsed())


def parse_collapsed(text: str) -> list:
    """Parse collapsed-stack lines back to ``[(path tuple, value)]``;
    malformed lines are skipped (the format is whitespace-delimited,
    value last)."""
    parsed = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            continue
        try:
            parsed.append((tuple(stack.split(";")), int(value)))
        except ValueError:
            continue
    return parsed


#: A process-global profiler for ad-hoc use (the bench conftest attaches
#: it to the global tracer when both TELEMETRY and PERF are enabled).
PROFILER = Profiler()
