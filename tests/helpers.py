"""Shared test helpers (not collected: no ``test_`` prefix)."""

from contextlib import contextmanager

from repro.faults import FAULTS
from repro.obs import TELEMETRY


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
    """Drop ``telemetry``'s collected spans and metrics; keep its
    switch."""
    telemetry.tracer.finished = []
    telemetry.metrics.clear()
