"""Streaming anomaly detection over the audit stream (ISSUE 8).

Pins the detection-plane contracts:

* detectors are deterministic pure functions of the event window —
  threshold/window semantics, clear-on-fire, predicate and kind
  filters;
* the engine re-emits detections into the ledger without ever
  detecting its own output (no feedback loops), and the resulting
  chain still verifies;
* every golden scenario runs silent — zero detections, zero
  non-info events;
* an adversary campaign produces a byte-identical ledger and
  detection sequence serial vs ``jobs=2`` (the parity acceptance
  criterion);
* the audit summary tallies events per subsystem and severity, and
  detections per detector.
"""

import pytest

from repro.faults import FAULTS
from repro.faults.adversary import standard_adversary_campaign
from repro.faults.scenarios import standard_scenarios
from repro.obs.audit import (AUDIT, AuditLedger, canonical_encode,
                             summarize_records, verify_records)
from repro.obs.detect import (DETECT_SUBSYSTEM, AnomalyEngine,
                              WindowThresholdDetector,
                              standard_detectors)


def _event(seq, kind="boot-rejected", subsystem="tee.boot",
           severity="critical", detail=None):
    return {"type": "event", "seq": seq, "subsystem": subsystem,
            "kind": kind, "severity": severity,
            "detail": detail or {}}


@pytest.fixture(autouse=True)
def _pristine_global_audit():
    """Tests that touch the process-global ``AUDIT`` must not leak
    state (or listeners) into the rest of the suite."""
    yield
    AUDIT.disable()
    AUDIT.reset()
    AUDIT._listeners = []


# -- window/threshold detector --------------------------------------------

class TestWindowThresholdDetector:
    def test_tripwire_fires_on_first_match(self):
        detector = WindowThresholdDetector(
            "trip", kinds=("bus-watchdog",), threshold=1, window=1)
        detection = detector.observe(
            _event(5, kind="bus-watchdog", subsystem="soc.bus"))
        assert detection is not None
        assert detection.detector == "trip"
        assert (detection.first_seq, detection.last_seq) == (5, 5)
        assert detection.count == 1

    def test_threshold_needs_full_window(self):
        detector = WindowThresholdDetector(
            "burst", kinds=("boot-rejected",), threshold=3, window=64)
        assert detector.observe(_event(1)) is None
        assert detector.observe(_event(2)) is None
        detection = detector.observe(_event(3))
        assert detection is not None
        assert detection.first_seq == 1
        assert detection.count == 3
        assert detection.threshold == 3

    def test_window_expiry_forgets_old_events(self):
        detector = WindowThresholdDetector(
            "burst", kinds=("boot-rejected",), threshold=2, window=4)
        assert detector.observe(_event(0)) is None
        # seq 10 is outside [7, 10] window of seq 0 — count resets.
        assert detector.observe(_event(10)) is None
        assert detector.observe(_event(11)) is not None

    def test_clear_on_fire_means_one_detection_per_burst(self):
        detector = WindowThresholdDetector(
            "burst", kinds=("boot-rejected",), threshold=2, window=64)
        assert detector.observe(_event(1)) is None
        assert detector.observe(_event(2)) is not None
        # The window cleared; the next event alone must not re-fire.
        assert detector.observe(_event(3)) is None
        assert detector.observe(_event(4)) is not None

    def test_kind_and_predicate_filters(self):
        detector = WindowThresholdDetector(
            "replay", kinds=("delivery-attempt-failed",),
            predicate=lambda r: (r.get("detail") or {})
            .get("reason") == "replay",
            threshold=1, window=1)
        wrong_kind = _event(1, kind="delivery-rejected",
                            subsystem="tee.delivery",
                            detail={"reason": "replay"})
        wrong_reason = _event(3, kind="delivery-attempt-failed",
                              subsystem="tee.delivery",
                              detail={"reason": "timeout"})
        match = _event(4, kind="delivery-attempt-failed",
                       subsystem="tee.delivery",
                       detail={"reason": "replay"})
        assert detector.observe(wrong_kind) is None
        assert detector.observe(wrong_reason) is None
        assert detector.observe(match) is not None

    def test_detection_events_never_match(self):
        detector = WindowThresholdDetector("any", threshold=1,
                                           window=1)
        record = _event(1, kind="detection",
                        subsystem=DETECT_SUBSYSTEM)
        assert detector.observe(record) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowThresholdDetector("x", threshold=0)
        with pytest.raises(ValueError):
            WindowThresholdDetector("x", window=0)


# -- the engine on a live ledger ------------------------------------------

class TestAnomalyEngine:
    def test_detection_re_enters_ledger_and_chain_verifies(self):
        ledger = AuditLedger(enabled=True)
        ledger.checkpoint_every = 0
        engine = AnomalyEngine(ledger=ledger)
        try:
            for _ in range(3):
                ledger.emit("tee.boot", "boot-rejected",
                            severity="critical",
                            reason="boot-verification-failed")
        finally:
            engine.uninstall()
        assert engine.by_detector() == {"boot-failure-burst": 1}
        kinds = [r["kind"] for r in ledger.records()
                 if r["type"] == "event"]
        assert kinds == ["boot-rejected"] * 3 + ["detection"]
        detection = ledger.records()[-1]
        assert detection["subsystem"] == DETECT_SUBSYSTEM
        assert detection["detail"]["detector"] == "boot-failure-burst"
        assert detection["detail"]["source"] == "tee.boot"
        verify_records(ledger.export_records())

    def test_no_feedback_loop_on_detection_events(self):
        ledger = AuditLedger(enabled=True)
        ledger.checkpoint_every = 0
        # A tripwire on *everything* would loop forever if detections
        # could trigger detections.
        engine = AnomalyEngine(
            detectors=[WindowThresholdDetector("all", threshold=1,
                                               window=1)],
            ledger=ledger)
        try:
            ledger.emit("soc.bus", "bus-watchdog",
                        severity="critical", cycle=1, pending=1)
        finally:
            engine.uninstall()
        assert len(engine.detections) == 1
        assert ledger.event_count() == 2   # trigger + one detection

    def test_uninstall_stops_observation(self):
        ledger = AuditLedger(enabled=True)
        ledger.checkpoint_every = 0
        engine = AnomalyEngine(ledger=ledger)
        engine.uninstall()
        ledger.emit("soc.bus", "bus-watchdog", severity="critical")
        assert engine.detections == []

    def test_sequence_is_json_native(self):
        engine = AnomalyEngine(ledger=None)
        engine.observe(_event(1, kind="bus-watchdog",
                              subsystem="soc.bus"))
        sequence = engine.sequence()
        assert len(sequence) == 1
        canonical_encode(sequence)           # raises if not JSON-native
        assert sequence[0]["severity"] == "critical"

    def test_standard_suite_names_are_unique(self):
        names = [d.name for d in standard_detectors()]
        assert len(names) == len(set(names))
        assert "hardening-gate" in names


# -- golden runs are silent -----------------------------------------------

class TestGoldenSilence:
    def test_standard_scenarios_emit_no_detections(self):
        FAULTS.disarm()
        AUDIT.reset()
        AUDIT.enable()
        engine = AnomalyEngine(ledger=AUDIT)
        try:
            for scenario in standard_scenarios():
                result = scenario.execute()
                assert result["status"] == "ok", (scenario.name,
                                                  result)
        finally:
            engine.uninstall()
        assert engine.detections == []
        severities = {r["severity"] for r in AUDIT.records()
                      if r["type"] == "event"}
        assert severities <= {"info"}
        verify_records(AUDIT.export_records())


# -- serial vs parallel parity --------------------------------------------

class TestCampaignParity:
    def _campaign_ledger(self, jobs):
        AUDIT.reset()
        AUDIT.enable()
        engine = AnomalyEngine(ledger=AUDIT)
        try:
            standard_adversary_campaign(seed=11, generations=2,
                                        population=60, jobs=jobs)
        finally:
            engine.uninstall()
        records = AUDIT.export_records()
        sequence = engine.sequence()
        AUDIT.disable()
        AUDIT.reset()
        return records, sequence

    def test_ledger_and_detections_identical_serial_vs_jobs2(self):
        serial_records, serial_sequence = self._campaign_ledger(1)
        parallel_records, parallel_sequence = self._campaign_ledger(2)
        assert [canonical_encode(r) for r in parallel_records] == \
            [canonical_encode(r) for r in serial_records]
        assert parallel_sequence == serial_sequence
        assert verify_records(serial_records)["events"] > 0


# -- audit summary --------------------------------------------------------

class TestAuditSummary:
    def test_summary_tallies_subsystems_and_detections(self):
        ledger = AuditLedger(enabled=True)
        ledger.checkpoint_every = 0
        engine = AnomalyEngine(ledger=ledger)
        try:
            ledger.emit("tee.boot", "boot-verified", post_quantum=True)
            ledger.emit("soc.bus", "bus-watchdog",
                        severity="critical", cycle=9, pending=2)
        finally:
            engine.uninstall()
        summary = summarize_records(ledger.export_records())
        assert summary["by_subsystem"] == {
            "tee.boot": {"info": 1},
            "soc.bus": {"critical": 1},
            DETECT_SUBSYSTEM: {"critical": 1}}
        assert summary["detections"] == {"bus-wedge": 1}
