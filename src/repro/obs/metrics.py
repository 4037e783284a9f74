"""Metrics primitives: counters, gauges, histograms, and a registry.

Instruments are plain single-process objects: parallel runs fork
worker processes, and each worker ships its metric deltas home for
:meth:`MetricsRegistry.merge_delta`.  Histograms keep their raw samples — the spaces measured here are a few
thousand observations at most, so exact percentiles beat a streaming
sketch in both fidelity and code size.
"""

from __future__ import annotations


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self):
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-written value (utilisation, rates, sizes)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


def percentile(sorted_samples: list, fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, int(len(sorted_samples) * fraction + 0.5))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


class Histogram:
    """Stored-sample distribution with p50/p95/p99 summary."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._samples = []

    def observe(self, value: float) -> None:
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    def samples(self) -> list:
        return list(self._samples)

    def snapshot(self) -> dict:
        ordered = sorted(self._samples)
        if not ordered:
            return {"type": "histogram", "count": 0}
        total = sum(ordered)
        return {
            "type": "histogram",
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }


class MetricsRegistry:
    """Name -> instrument, get-or-create, one namespace per telemetry."""

    def __init__(self):
        self._instruments = {}

    def _get(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory(name)
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """``{name: instrument snapshot}`` for every registered metric."""
        instruments = self._instruments
        return {name: instruments[name].snapshot()
                for name in sorted(instruments)}

    def clear(self) -> None:
        self._instruments = {}

    # -- worker shipping (the parallel executor's metrics merge) -----------

    def mark(self) -> dict:
        """A cheap position marker per instrument, for
        :meth:`delta_since`: counter/gauge values, histogram lengths."""
        marks = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                marks[name] = instrument.count
            else:
                marks[name] = instrument.value
        return marks

    def delta_since(self, marks: dict) -> dict:
        """What happened after ``marks`` as a picklable, JSON-native
        payload a pool worker ships back to the parent process."""
        delta = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                grown = instrument.value - marks.get(name, 0)
                if grown > 0:
                    delta[name] = {"type": "counter", "inc": grown}
            elif isinstance(instrument, Gauge):
                if name not in marks or \
                        instrument.value != marks[name]:
                    delta[name] = {"type": "gauge",
                                   "value": instrument.value}
            elif isinstance(instrument, Histogram):
                samples = instrument.samples()[marks.get(name, 0):]
                if samples:
                    delta[name] = {"type": "histogram",
                                   "samples": samples}
        return delta

    def merge_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta_since` payload into this
        registry.  Counter increments and histogram samples are
        commutative; gauges keep the last merged write."""
        for name, record in (delta or {}).items():
            kind = record.get("type")
            if kind == "counter":
                self.counter(name).inc(record["inc"])
            elif kind == "gauge":
                self.gauge(name).set(record["value"])
            elif kind == "histogram":
                histogram = self.histogram(name)
                for sample in record["samples"]:
                    histogram.observe(sample)
