"""Worker-side observability capture and parent-side merge.

A forked pool worker inherits the parent's :data:`~repro.obs.PERF`
counter file and telemetry tracer — including everything the
parent already recorded.  :func:`worker_setup` (run once per worker
process from the pool initializer) resets those inherited copies so the
worker counts only its own activity; :func:`capture_begin` /
:func:`capture_end` then bracket each *task* (a pool worker serves many
tasks) and produce a small picklable payload; :func:`merge_capture`
folds that payload back into the parent's facades.

The merge obeys the determinism contract of the executor: counter
increments are commutative, payloads are merged in shard-index order, and span batches are re-parented under the span
that fanned the work out — so enabled-observability totals are
identical for any worker count, which the parity tests assert.
"""

from __future__ import annotations

from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..obs.telemetry import TELEMETRY


def worker_setup() -> None:
    """Reset fork-inherited observability state in a new pool worker.

    Drops inherited perf counts, finished spans and the parent's
    open-span stack.  Switch states (enabled / disabled) are
    deliberately kept — they are how the parent tells workers whether
    to count at all.  The inherited audit ledger is likewise reset to
    a bare event recorder: workers ship plain event bodies home and
    only the parent chains, signs and runs detection.
    """
    PERF.reset()
    TELEMETRY.tracer.reset_worker()
    AUDIT.reset_worker()


def capture_begin():
    """Mark the observability position at the start of one task."""
    if not (PERF.enabled or TELEMETRY.enabled or AUDIT.enabled):
        return None
    return {
        "perf": PERF.snapshot() if PERF.enabled else None,
        "spans": TELEMETRY.tracer.finished_count()
        if TELEMETRY.enabled else None,
        "audit": AUDIT.mark() if AUDIT.enabled else None,
    }


def capture_end(mark) -> dict:
    """Everything observable that happened since ``mark``, as plain
    picklable data (dicts, lists, numbers) — ``None`` when nothing is
    enabled."""
    if mark is None:
        return None
    capture = {}
    if mark["perf"] is not None:
        delta = PERF.snapshot() - mark["perf"]
        if delta:
            capture["perf"] = dict(delta)
    if mark["spans"] is not None:
        spans = TELEMETRY.tracer.records_since(mark["spans"])
        if spans:
            capture["spans"] = spans
    if mark["audit"] is not None:
        bodies = AUDIT.bodies_since(mark["audit"])
        if bodies:
            capture["audit"] = bodies
    return capture or None


def merge_capture(capture) -> None:
    """Fold one worker task's capture into the parent-process facades.

    Shards merge in shard-index order, so the parent's span records
    land in the same order as a serial run's.
    """
    if not capture:
        return
    perf = capture.get("perf")
    if perf and PERF.enabled:
        PERF.merge(perf)
    bodies = capture.get("audit")
    if bodies and AUDIT.enabled:
        # Re-emitted one body at a time through the parent's append
        # path, so listeners (detections) and cadence checkpoints land
        # at the same stream positions as a serial run.
        AUDIT.merge_bodies(bodies)
    spans = capture.get("spans")
    if spans and TELEMETRY.enabled:
        TELEMETRY.tracer.merge_records(spans)
