"""Shared test helpers (not collected: no ``test_`` prefix)."""

from contextlib import contextmanager

from repro.faults import FAULTS
from repro.hades import LocalSearchExplorer, OptimizationGoal
from repro.obs import TELEMETRY, counting


@contextmanager
def injected(*specs):
    """Arm ``specs`` for the duration of a with-block; always disarms.

    Yields the global injector; fired events are available as
    ``FAULTS.events`` inside the block (they are cleared on exit)."""
    FAULTS.arm(*specs)
    try:
        yield FAULTS
    finally:
        FAULTS.disarm()


def reset_telemetry(telemetry=TELEMETRY) -> None:
    """Drop ``telemetry``'s collected spans; keep its switch."""
    telemetry.tracer.finished = []


def search_outcome(template, context, seed, starts, jobs) -> tuple:
    """``(evaluations, cache_hits, best, PERF delta)`` of a seeded
    area-goal local search, read from its telemetry span."""
    was = TELEMETRY.enabled
    TELEMETRY.enabled = True
    reset_telemetry()
    try:
        with counting() as window:
            result = LocalSearchExplorer(template, context, seed=seed).run(
                OptimizationGoal.AREA, starts=starts, jobs=jobs)
        attrs = [record["attrs"] for record in TELEMETRY.tracer.snapshot()
                 if record["name"] == "hades.local_search.run"][-1]
    finally:
        reset_telemetry()
        TELEMETRY.enabled = was
    return (attrs["evaluations"], attrs["cache_hits"], result.best,
            dict(window.delta()))
