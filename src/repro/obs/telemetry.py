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

import os
import pathlib
import time

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

    def __init__(self, enabled: bool = False,
                 clock=time.perf_counter):
        self.enabled = bool(enabled)
        self.tracer = Tracer(clock=clock)

    def span(self, name: str, **attrs):
        """Context manager tracing a named region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def export(self, directory,
               trace_name: str = "trace.jsonl") -> pathlib.Path:
        """Write the JSONL trace under ``directory``; returns its path."""
        from .export import write_jsonl
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return write_jsonl(self.tracer.snapshot(), directory / trace_name)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "") not in ("", "0", "off",
                                                         "false")


#: The process-global facade every instrumented subsystem imports.
TELEMETRY = Telemetry(enabled=_env_enabled())
