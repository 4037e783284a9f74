"""Streaming anomaly detection over the audit ledger (ISSUE 8).

Detectors are **deterministic pure functions of the event window**:
each one sees the audit stream record by record, keeps a bounded
window of matching event sequence numbers, and fires a typed
:class:`Detection` when the window crosses its threshold.  There is no
wall-clock time and no randomness anywhere in the pipeline — the event
sequence number is the only clock — so an adversary campaign replayed
from its seed produces the identical detection sequence, and the
serial and ``REPRO_JOBS=N`` runs of the same campaign produce
byte-identical ledgers (detections included).

The :class:`AnomalyEngine` subscribes to an
:class:`~repro.obs.audit.AuditLedger` as a listener; every detection
is both collected on the engine and emitted back into the ledger under
the ``obs.detect`` subsystem, which makes the detector output itself
tamper-evident and lets :func:`~repro.obs.audit.summarize_records`
tally it per detector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .audit import AUDIT

#: Subsystem under which detections are re-emitted into the ledger.
#: Engine and detectors skip records from it, so a detection can never
#: trigger another detection (no feedback loops).
DETECT_SUBSYSTEM = "obs.detect"


@dataclass(frozen=True)
class Detection:
    """One detector firing: what fired, why, and over which events."""

    detector: str
    severity: str
    reason: str
    subsystem: str
    first_seq: int
    last_seq: int
    count: int
    window: int
    threshold: int

    def to_detail(self) -> dict:
        """JSON-native detail payload for the ledger event."""
        return {"detector": self.detector, "reason": self.reason,
                "source": self.subsystem,
                "first_seq": self.first_seq,
                "last_seq": self.last_seq, "count": self.count,
                "window": self.window, "threshold": self.threshold}


class WindowThresholdDetector:
    """Fire when >= ``threshold`` matching events land within a
    sliding window of ``window`` consecutive sequence numbers.

    ``kinds`` / ``predicate`` select which events
    count; ``threshold=1`` makes the detector a tripwire.  After
    firing, the window clears: one detection per burst, and the next
    burst must fill the window again.
    """

    def __init__(self, name: str, kinds=None,
                 predicate=None, threshold: int = 1,
                 window: int = 64, severity: str = "warning",
                 reason: str = ""):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = name
        self.kinds = frozenset(kinds) if kinds else None
        self.predicate = predicate
        self.threshold = threshold
        self.window = window
        self.severity = severity
        self.reason = reason or name
        self._seqs = deque()

    def matches(self, record: dict) -> bool:
        if record.get("subsystem") == DETECT_SUBSYSTEM:
            return False
        if self.kinds is not None and \
                record.get("kind") not in self.kinds:
            return False
        if self.predicate is not None and \
                not self.predicate(record):
            return False
        return True

    def observe(self, record: dict):
        """Feed one event record; returns a :class:`Detection` when
        the threshold trips, else ``None``."""
        if not self.matches(record):
            return None
        seq = int(record["seq"])
        self._seqs.append(seq)
        floor = seq - self.window + 1
        while self._seqs and self._seqs[0] < floor:
            self._seqs.popleft()
        if len(self._seqs) < self.threshold:
            return None
        detection = Detection(
            detector=self.name, severity=self.severity,
            reason=self.reason,
            subsystem=str(record.get("subsystem")),
            first_seq=int(self._seqs[0]), last_seq=seq,
            count=len(self._seqs), window=self.window,
            threshold=self.threshold)
        self._seqs.clear()
        return detection


def standard_detectors() -> list:
    """The ISSUE 8 detector suite, tuned against the standard
    scenarios: silent across every golden run, and guaranteed (via the
    threshold-1 ``hardening-gate`` tripwire) to flag 100% of
    hardening-gate violations."""
    return [
        WindowThresholdDetector(
            "boot-failure-burst", kinds=("boot-rejected",),
            threshold=3, window=64, severity="critical",
            reason="burst of boot-verification failures"),
        WindowThresholdDetector(
            "pmp-trap-rate",
            kinds=("pmp-denial", "fault-contained"),
            threshold=16, window=128, severity="warning",
            reason="sustained PMP trap / containment rate"),
        WindowThresholdDetector(
            "delivery-replay", kinds=("delivery-attempt-failed",),
            predicate=lambda r: (r.get("detail") or {})
            .get("reason") == "replay",
            threshold=1, window=1, severity="critical",
            reason="model-update replay detected"),
        WindowThresholdDetector(
            "delivery-failure-burst",
            kinds=("delivery-attempt-failed", "delivery-rejected"),
            threshold=4, window=32, severity="warning",
            reason="burst of model-delivery failures"),
        WindowThresholdDetector(
            "bus-wedge", kinds=("bus-watchdog",),
            threshold=1, window=1, severity="critical",
            reason="bus watchdog expired with pending transactions"),
        WindowThresholdDetector(
            "hardening-gate", kinds=("hardening-violation",),
            threshold=1, window=1, severity="critical",
            reason="hardened scenario reached a forbidden outcome"),
    ]


class AnomalyEngine:
    """Streams ledger events through a detector suite.

    Install on a ledger to run online (every :meth:`~repro.obs.audit.
    AuditLedger._append` feeds the engine, detections re-enter the
    ledger immediately after their trigger event); or call
    :meth:`observe` directly to sweep an already-collected stream.
    """

    def __init__(self, detectors=None, ledger=None):
        self.detectors = (list(detectors) if detectors is not None
                          else standard_detectors())
        self.detections = []
        self._ledger = None
        if ledger is not None:
            self.install(ledger)

    def install(self, ledger=None) -> "AnomalyEngine":
        """Subscribe to ``ledger`` (default: the global ``AUDIT``)."""
        self.uninstall()
        self._ledger = ledger if ledger is not None else AUDIT
        self._ledger.add_listener(self.observe)
        return self

    def uninstall(self) -> None:
        if self._ledger is not None:
            self._ledger.remove_listener(self.observe)
            self._ledger = None

    def observe(self, record: dict) -> None:
        if record.get("type") != "event":
            return
        if record.get("subsystem") == DETECT_SUBSYSTEM:
            return
        for detector in self.detectors:
            detection = detector.observe(record)
            if detection is None:
                continue
            self.detections.append(detection)
            if self._ledger is not None:
                self._ledger.emit(
                    DETECT_SUBSYSTEM, "detection",
                    severity=detection.severity,
                    **detection.to_detail())

    def by_detector(self) -> dict:
        counts = {}
        for detection in self.detections:
            counts[detection.detector] = \
                counts.get(detection.detector, 0) + 1
        return counts

    def sequence(self) -> list:
        """The detection sequence as JSON-native dicts (parity
        artifacts compare this byte for byte)."""
        return [dict(d.to_detail(), severity=d.severity)
                for d in self.detections]
