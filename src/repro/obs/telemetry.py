"""The global telemetry facade.

Design rule (ISSUE 1): *disabled instrumentation costs one attribute
check*.  Every instrumented call site is either written as

    if TELEMETRY.enabled:
        TELEMETRY.counter("sub.thing").inc()

or goes through a facade method (``span``/``timer``/``counter``/...)
whose first action is that same check, after which a shared, stateless
no-op object is returned.  Nothing allocates on the disabled path.

Enable programmatically (:func:`enable`) or by exporting
``REPRO_TELEMETRY=1`` before the interpreter starts.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Span, Tracer


class _NullSpan:
    """Stateless stand-in for Span/timer context managers; shared."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullInstrument:
    """Stateless stand-in for Counter/Gauge/Histogram; shared."""

    __slots__ = ()
    value = 0
    count = 0

    def inc(self, amount=1):
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class _Timer:
    """Context manager feeding one duration into a histogram."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: Histogram, clock):
        self._histogram = histogram
        self._clock = clock

    def __enter__(self):
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._histogram.observe(self._clock() - self._start)
        return False


class Telemetry:
    """One tracer + one metrics registry behind an on/off switch."""

    def __init__(self, enabled: bool = False,
                 clock=time.perf_counter):
        self.enabled = bool(enabled)
        self._clock = clock
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()

    # -- switch ------------------------------------------------------------

    # -- instruments -------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context manager tracing a named region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def timer(self, name: str):
        """Context manager recording its duration into histogram ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Timer(self.metrics.histogram(name), self._clock)

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.histogram(name)

    # -- export ------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def export(self, directory, trace_name: str = "trace.jsonl",
               metrics_name: str = "metrics.json") -> dict:
        """Write the JSONL trace and a metrics snapshot under
        ``directory``; returns ``{"trace": path, "metrics": path}``."""
        from .export import atomic_write_text, write_jsonl
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / trace_name
        metrics_path = directory / metrics_name
        write_jsonl(self.tracer.snapshot(), trace_path)
        atomic_write_text(
            metrics_path,
            json.dumps(self.metrics_snapshot(), indent=2, sort_keys=True)
            + "\n")
        return {"trace": trace_path, "metrics": metrics_path}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "") not in ("", "0", "off",
                                                         "false")


#: The process-global facade every instrumented subsystem imports.
TELEMETRY = Telemetry(enabled=_env_enabled())
