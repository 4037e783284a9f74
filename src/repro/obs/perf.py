"""Architectural performance counters: the hardware-PMU analogue.

The paper's overhead claims (Table III bootrom/report/stack sizes,
Section III-E composable-execution cost) are *architectural* quantities
— instructions retired, bus grants, PMP checks, crypto invocations —
not wall seconds.  This module gives the simulators a hardware-style
event-counter file so benches can assert and track event counts.

Design rule (same as :data:`~repro.obs.telemetry.TELEMETRY` and
``FAULTS``): *disabled counters cost one attribute check*.  Every
instrumented site is written as

    if PERF.enabled:
        PERF.inc("soc.pmp.checks")

Event names are dot-namespaced per subsystem (``soc.cpu.*``,
``soc.bus.*``, ``rtos.*``, ``tee.*``, ``crypto.*``, ``compsoc.*``,
``faults.*``), so a snapshot can be grouped or filtered by origin.

Snapshots support delta arithmetic::

    before = PERF.snapshot()
    ... workload ...
    delta = PERF.snapshot() - before        # PerfSnapshot
    assert delta["soc.pmp.checks"] > 0      # missing events read as 0

or, scoped, with :func:`counting`::

    with counting() as window:
        ... workload ...
    assert window.delta()["rtos.context_switches"] > 0

Enable per process with ``REPRO_PERF=1`` or programmatically with
:meth:`PerfCounters.enable`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


class PerfSnapshot(dict):
    """An immutable-by-convention ``{event: count}`` map.

    Missing events read as 0, and snapshots subtract/add into new
    snapshots, dropping zero entries so deltas stay compact::

        delta = after - before
        total = run1 + run2
    """

    def __missing__(self, key):
        return 0

    def __sub__(self, other: dict) -> "PerfSnapshot":
        result = PerfSnapshot()
        for key in set(self) | set(other):
            value = self.get(key, 0) - other.get(key, 0)
            if value:
                result[key] = value
        return result

    def __add__(self, other: dict) -> "PerfSnapshot":
        result = PerfSnapshot()
        for key in set(self) | set(other):
            value = self.get(key, 0) + other.get(key, 0)
            if value:
                result[key] = value
        return result


class PerfCounters:
    """The process-global event-counter file.

    One flat ``{event name: int}`` map behind an on/off switch; sites
    guard every :meth:`inc` with ``if PERF.enabled`` so the disabled
    path costs one attribute check.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._counts = {}

    # -- switch ------------------------------------------------------------

    def enable(self) -> "PerfCounters":
        self.enabled = True
        return self

    def disable(self) -> "PerfCounters":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Zero every counter; keep the switch state."""
        self._counts = {}

    # -- counting ----------------------------------------------------------

    def inc(self, event: str, amount: int = 1) -> None:
        """Add ``amount`` to ``event`` (call sites guard on .enabled)."""
        counts = self._counts
        counts[event] = counts.get(event, 0) + amount

    def snapshot(self) -> PerfSnapshot:
        """A point-in-time copy of every counter."""
        return PerfSnapshot(self._counts)

    def delta_since(self, before: dict) -> PerfSnapshot:
        return self.snapshot() - before

    def merge(self, delta: dict) -> None:
        """Fold a worker's counter delta into this counter file.

        Counter addition is commutative, so merging per-worker deltas
        in any order yields the same totals as counting in-process —
        the property the parallel-executor parity tests pin.
        """
        counts = self._counts
        for event, count in (delta or {}).items():
            counts[event] = counts.get(event, 0) + count


class CountingWindow:
    """Handle yielded by :func:`counting`: the delta since entry."""

    __slots__ = ("_counters", "_entry")

    def __init__(self, counters: PerfCounters, entry: PerfSnapshot):
        self._counters = counters
        self._entry = entry

    def delta(self) -> PerfSnapshot:
        return self._counters.snapshot() - self._entry


@contextmanager
def counting():
    """Enable :data:`PERF` for the block; yields a
    :class:`CountingWindow` whose :meth:`~CountingWindow.delta` is the
    events attributable to the block.  Restores the prior switch state
    on exit (counts themselves keep accumulating — deltas, not resets,
    isolate the window)."""
    counters = PERF
    was_enabled = counters.enabled
    entry = counters.snapshot()
    counters.enabled = True
    try:
        yield CountingWindow(counters, entry)
    finally:
        counters.enabled = was_enabled


def env_enabled(name: str) -> bool:
    """Whether environment switch ``name`` is on: set, and not ``0``,
    ``off`` or ``false``."""
    return os.environ.get(name, "") not in ("", "0", "off", "false")


#: The process-global counter file every instrumented subsystem imports.
PERF = PerfCounters(enabled=env_enabled("REPRO_PERF"))
