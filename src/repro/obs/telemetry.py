"""The global telemetry facade.

Design rule: *disabled instrumentation costs one attribute check*.
Every instrumented call site is either written as

    with TELEMETRY.span("sub.thing", size=n) as span:
        ...
        if TELEMETRY.enabled:
            span.set_attr("items", count)

or goes through :meth:`Telemetry.span`, whose first action is that same
check, after which a shared, stateless no-op context manager is
returned.  Nothing allocates on the disabled path.

A span is the one record of an observation: its duration is the
region's wall time, its attrs carry the counts the region produced,
and (with :data:`~repro.obs.perf.PERF` on) its ``events`` carry the
architectural events counted while it ran.  Latency distributions are
derived from span durations (:func:`repro.obs.report.summarize`).

Enable programmatically (``TELEMETRY.enabled = True``) or by exporting
``REPRO_TELEMETRY=1`` before the interpreter starts.
"""

from __future__ import annotations

import pathlib

from .perf import env_enabled
from .tracer import Tracer


class _NullSpan:
    """Stateless stand-in for a Span context manager; shared."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One span tracer behind an on/off switch."""

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self.tracer = Tracer()

    def span(self, name: str, **attrs):
        """Context manager tracing a named region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def export(self, directory) -> pathlib.Path:
        """Write the JSONL trace to ``directory/trace.jsonl``; returns
        its path."""
        from .export import write_jsonl
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return write_jsonl(self.tracer.snapshot(),
                           directory / "trace.jsonl")



#: The process-global facade every instrumented subsystem imports.
TELEMETRY = Telemetry(enabled=env_enabled("REPRO_TELEMETRY"))
