"""Audit ledger + anomaly detection at campaign scale (ISSUE 8).

Runs the PR 7 adversary campaign as the evaluation harness for the
security-observability plane and asserts its acceptance bar:

* **zero false positives** — every golden scenario executes with the
  ledger and the standard detector suite live, and not one detector
  fires;
* **100% detection coverage of hardening-gate violations** — a
  deliberately mis-hardened family (the flat-RTOS baseline declared
  hardened) produces violations, and the ``hardening-gate`` tripwire
  flags every single one;
* the standard campaign control stays clean: no violations, no
  ``hardening-gate`` detections;
* the full audit chain verifies (header -> events -> signed
  checkpoints) after ~10^4 audited injections;
* auditing + detection cost < 10% wall overhead on the same campaign
  (median ratio of interleaved rounds);
* the ledger bytes and the detection sequence are identical serial vs
  ``REPRO_JOBS``-sharded execution.

Scale knobs: ``REPRO_AUDIT_GENERATIONS`` x ``REPRO_AUDIT_POPULATION``
(default 10 x 1000 = the 10^4 audited budget; CI runs the same).

Artifacts: ``results/audit.jsonl`` (the tamper-evident ledger — feed
it to ``scripts/audit_report.py --verify``), ``results/
audit_detections.json`` (the typed detection sequence), the human
summary table and ``results/audit_detection_overhead`` (the observer
cost gate's walls and overhead).
"""

import json
import os
import statistics
import time

import pytest

from conftest import write_table
from repro.faults import FAULTS
from repro.faults.adversary import standard_adversary_campaign
from repro.faults.adversary.campaign import AdversaryCampaign
from repro.faults.adversary.families import TaskProgramAdversary
from repro.faults.scenarios import standard_scenarios
from repro.obs import atomic_write_text
from repro.obs.audit import (AUDIT, canonical_encode,
                             load_ledger_records, summarize_records,
                             verify_records)
from repro.obs.detect import AnomalyEngine

SEED = 2026
GENERATIONS = int(os.environ.get("REPRO_AUDIT_GENERATIONS", "10"))
POPULATION = int(os.environ.get("REPRO_AUDIT_POPULATION", "1000"))

#: Observer-cost gate: auditing + detection on the identical campaign,
#: the median on/off ratio of ``OVERHEAD_ROUNDS`` interleaved rounds
#: (first arm alternating, after an untimed warm-up of both arms), must
#: stay under 10%.
OVERHEAD_BUDGET = 0.10
OVERHEAD_GENERATIONS = 3
OVERHEAD_POPULATION = 150
OVERHEAD_ROUNDS = 15

#: Byte-parity is structural (worker bodies re-chained through the
#: parent in shard order), so a reduced budget pins it.
PARITY_GENERATIONS = 3
PARITY_POPULATION = 200
PARALLEL_JOBS = 2

#: Forced-violation run: the flat-RTOS family declared hardened, so
#: every silent corruption becomes a hardening-gate violation.
VIOLATION_GENERATIONS = 2
VIOLATION_POPULATION = 100


def _audited(callback):
    """Run ``callback`` with the global ledger + standard detectors
    live; returns (callback result, exported records, detection
    sequence, by-detector tallies) and restores the global state."""
    AUDIT.reset()
    AUDIT.enable()
    engine = AnomalyEngine(ledger=AUDIT)
    try:
        value = callback()
        records = AUDIT.export_records()
        sequence = engine.sequence()
        by_detector = engine.by_detector()
    finally:
        engine.uninstall()
        AUDIT.disable()
        AUDIT.reset()
    return value, records, sequence, by_detector


@pytest.fixture(scope="module")
def audited_campaign():
    """Golden phase + the full audited adversary campaign, one ledger."""
    FAULTS.disarm()
    timing = {}

    def run():
        golden = [scenario.execute()
                  for scenario in standard_scenarios()]
        golden_events = AUDIT.event_count()
        start = time.perf_counter()
        result = standard_adversary_campaign(
            seed=SEED, generations=GENERATIONS, population=POPULATION)
        timing["campaign_wall"] = time.perf_counter() - start
        return golden, golden_events, result

    (golden, golden_events, result), records, sequence, by_detector = \
        _audited(run)
    return {"golden": golden, "golden_events": golden_events,
            "result": result, "records": records,
            "sequence": sequence, "by_detector": by_detector,
            "wall": timing["campaign_wall"]}


def test_golden_runs_are_silent(audited_campaign):
    """False-positive gate: all-ok scenarios, zero detections, and
    not one event above ``info`` severity."""
    for outcome in audited_campaign["golden"]:
        assert outcome["status"] == "ok", outcome
    events = [r for r in audited_campaign["records"]
              if r["type"] == "event"]
    golden_slice = events[:audited_campaign["golden_events"]]
    assert golden_slice, "golden phase emitted no audit events"
    assert {r["severity"] for r in golden_slice} == {"info"}
    assert not any(r["subsystem"] == "obs.detect"
                   for r in golden_slice)


def test_chain_verifies_at_campaign_scale(audited_campaign):
    stats = verify_records(audited_campaign["records"])
    assert stats["events"] > audited_campaign["golden_events"]
    assert stats["checkpoints"] >= 1
    assert audited_campaign["result"].injections == \
        GENERATIONS * POPULATION


def test_standard_campaign_control_is_clean(audited_campaign):
    """The control arm: the properly hardened standard campaign has no
    violations — and therefore must produce zero ``hardening-gate``
    detections (the detector only ever mirrors real violations)."""
    result = audited_campaign["result"]
    assert result.hardened_violations() == []
    assert audited_campaign["by_detector"].get("hardening-gate",
                                               0) == 0


def test_every_hardening_violation_detected():
    """Detection-coverage gate: declare the flat-RTOS baseline
    hardened so its silent-corruption class becomes hardening-gate
    violations, and require the tripwire to flag 100% of them."""
    FAULTS.disarm()
    family = TaskProgramAdversary(protected=False)
    family.hardened = True

    def run():
        campaign = AdversaryCampaign(families=(family,), seed=SEED,
                                     shrink_budget=0)
        return campaign.run(generations=VIOLATION_GENERATIONS,
                            population=VIOLATION_POPULATION)

    result, records, _, by_detector = _audited(run)
    violations = len(result.violations)
    assert violations > 0, \
        "mis-hardened flat family produced no violations to detect"
    assert by_detector.get("hardening-gate", 0) == violations
    gate_events = [r for r in records
                   if r["type"] == "event"
                   and r["subsystem"] == "obs.detect"
                   and r["detail"].get("detector") == "hardening-gate"]
    assert len(gate_events) == violations
    verify_records(records)


def test_observer_overhead_within_budget(report_dir):
    """Auditing + detection on the identical campaign: < 10% wall
    overhead.  Both arms run once untimed to warm the process; then
    each round times both arms back to back, the first arm alternating,
    and the overhead is the median of the rounds' on/off ratios.  On a
    shared guest single runs of either arm swing by a third, so the
    best-of-N walls of the two arms can come from different machine
    states; a round's two runs share one."""
    FAULTS.disarm()

    def campaign():
        start = time.perf_counter()
        standard_adversary_campaign(seed=SEED + 1,
                                    generations=OVERHEAD_GENERATIONS,
                                    population=OVERHEAD_POPULATION)
        return time.perf_counter() - start

    arms = {"off": campaign, "on": lambda: _audited(campaign)[0]}
    for arm in arms.values():
        arm()
    walls = {"off": [], "on": []}
    for round_index in range(OVERHEAD_ROUNDS):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        for name in order:
            walls[name].append(arms[name]())
    overhead = statistics.median(
        on / off for on, off in zip(walls["on"], walls["off"])) - 1
    best_off, best_on = min(walls["off"]), min(walls["on"])
    write_table(
        report_dir, "audit_detection_overhead",
        f"Audit + detection observer overhead: "
        f"{OVERHEAD_GENERATIONS} x {OVERHEAD_POPULATION} injections, "
        f"{OVERHEAD_ROUNDS} interleaved rounds after a warm-up "
        f"(overhead = median of the rounds' on/off ratios)",
        ["arm", "median wall", "best wall", "overhead", "budget"],
        [["observers off", f"{statistics.median(walls['off']):.3f} s",
          f"{best_off:.3f} s", "-", "-"],
         ["audit + detection", f"{statistics.median(walls['on']):.3f} s",
          f"{best_on:.3f} s", f"{overhead:.1%}",
          f"< {OVERHEAD_BUDGET:.0%}"]])
    assert overhead < OVERHEAD_BUDGET, (
        f"audit+detection overhead {overhead:.1%} (walls {walls})")


def test_ledger_identical_serial_vs_sharded(report_dir):
    """The ledger bytes and detection sequence are pure functions of
    the campaign, not of the sharding."""
    FAULTS.disarm()

    def campaign(jobs):
        def run():
            start = time.perf_counter()
            standard_adversary_campaign(
                seed=SEED, generations=PARITY_GENERATIONS,
                population=PARITY_POPULATION, jobs=jobs)
            return time.perf_counter() - start
        return _audited(run)

    serial_wall, serial_records, serial_sequence, _ = campaign(1)
    parallel_wall, parallel_records, parallel_sequence, _ = \
        campaign(PARALLEL_JOBS)
    assert [canonical_encode(r) for r in parallel_records] == \
        [canonical_encode(r) for r in serial_records]
    assert parallel_sequence == serial_sequence

    injections = PARITY_GENERATIONS * PARITY_POPULATION
    write_table(
        report_dir, "audit_detection_parity",
        f"Audit-ledger parity: {injections} audited injections, "
        f"serial vs {PARALLEL_JOBS} workers — "
        f"{len(serial_records)} ledger records and "
        f"{len(serial_sequence)} detections byte-identical",
        ["mode", "jobs", "wall", "ledger records", "detections"],
        [["serial", 1, f"{serial_wall:.3f} s", len(serial_records),
          len(serial_sequence)],
         ["sharded", PARALLEL_JOBS, f"{parallel_wall:.3f} s",
          len(parallel_records), len(parallel_sequence)]])


def test_write_artifacts(audited_campaign, report_dir):
    records = audited_campaign["records"]
    ledger_path = report_dir / "audit.jsonl"
    atomic_write_text(
        ledger_path,
        "".join(canonical_encode(r).decode("ascii") + "\n"
                for r in records))
    # The written artifact must satisfy the verifier end to end —
    # this is the file CI feeds to ``scripts/audit_report.py
    # --verify`` and uploads.
    stats = verify_records(load_ledger_records(ledger_path))
    summary = summarize_records(records)
    atomic_write_text(
        report_dir / "audit_detections.json",
        json.dumps({"schema_version": 1, "name": "audit-detections",
                    "seed": SEED,
                    "by_detector": audited_campaign["by_detector"],
                    "sequence": audited_campaign["sequence"]},
                   indent=2, sort_keys=True) + "\n")

    rows = [[subsystem, severities.get("info", 0),
             severities.get("warning", 0),
             severities.get("critical", 0)]
            for subsystem, severities
            in sorted(summary["by_subsystem"].items())]
    write_table(
        report_dir, "audit_detection_summary",
        f"Audit ledger: seed={SEED}, "
        f"{audited_campaign['result'].injections} injections in "
        f"{audited_campaign['wall']:.1f}s -> {stats['events']} events, "
        f"{stats['checkpoints']} signed checkpoints, "
        f"{sum(audited_campaign['by_detector'].values())} detections "
        f"({', '.join(f'{k}={v}' for k, v in sorted(audited_campaign['by_detector'].items())) or 'none'})",
        ["subsystem", "info", "warning", "critical"],
        rows)
