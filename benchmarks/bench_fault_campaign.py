"""Seeded fault-injection campaign over the full stack (ISSUE 2).

Runs >= 200 deterministic injections across the standard scenario
suite (measured boot + attestation, attested delivery, RTOS protected
and flat baseline, SoC fabric) and asserts the hardening acceptance
bar: every fault fired into a hardened path is masked, detected or
recovered — zero silent corruption, zero crashes — while the flat RTOS
baseline still exhibits the silent-corruption class the PMP port
removes.

Artifacts: ``results/fault_campaign.json`` (canonical campaign JSON,
byte-identical for a given seed), ``results/fault_campaign_runs.jsonl``
(per-run records) and the ``results/fault_campaign_summary.txt``
human table (named so the table writer's companion ``.json`` does not
clobber the canonical artifact).  ``results/fault_campaign_verdicts``,
``results/fault_campaign_measurements`` and one table per crypto
result memo (``fault_campaign_signatures``, ``_signing_contexts``,
``_public_keys``, ``_encapsulations``, ``_decapsulations``, ``_ctr``)
compare each memo with a frozen never-hit baseline in the same
process.
"""

import statistics
import time

import pytest

from conftest import median_ratio, never_hits, paired_rounds, write_table
from repro.crypto import aes, ed25519, mlkem
from repro.faults.campaign import run_campaign, standard_campaign
from repro.faults.scenarios import standard_scenarios
from repro.obs import PERF, TELEMETRY, CoverageMap
from repro.faults.report import Outcome
from repro.runtime import available_cpus
from repro.tee import bootrom

SEED = 2026
INJECTIONS = 240
WALL_BUDGET_S = 60.0

#: Fixed worker count for the parallel rerun (not CPU-derived, so the
#: counters recorded into bench history stay machine-independent).
PARALLEL_JOBS = 4
PARALLEL_SPEEDUP_FLOOR = 1.2

#: Campaign with the Ed25519 verdict memo over the same campaign with
#: the ``parity.never_hits`` baseline for it, at the
#: ``fault-campaign`` bench op's size (60 injections): the median of
#: ``VERDICT_ROUNDS`` interleaved rounds' paired ratios.  Telemetry and
#: PERF are off in the timed window and coverage is not requested, so
#: the gate records no spans and ticks no counters (the bench-history
#: gate compares per-bench counters strictly).  A same-process ratio, so
#: asserted on every machine, at or below half the slowest of five
#: runs' excess over 1.0x (1.98x, 1.90x, 1.87x, 1.74x, 1.69x on a
#: 2-vCPU guest).
VERDICT_MEMO_FLOOR = 1.2
VERDICT_ROUNDS = 5
VERDICT_SEED = 11
VERDICT_INJECTIONS = 60

#: The same gate for ``bootrom.MEASUREMENT_MEMO`` on the same campaign:
#: every ``BootRom.measure`` and boot-memo key hashes its SM image
#: (192 KiB) in the baseline.  Floor at or below half the slowest of
#: five runs' excess over 1.0x (1.28x, 1.25x, 1.30x, 1.31x, 1.29x on a
#: 2-vCPU guest).
MEASUREMENT_MEMO_FLOOR = 1.1
MEASUREMENT_ROUNDS = 7

#: The same gate for the result memos a campaign clears beside the
#: verdict memo, over ``RESULT_MEMO_ROUNDS`` rounds.  Floors at or below
#: half the slowest of ten runs' excess over 1.0x on a 2-vCPU guest:
#: ML-KEM encapsulations (1.16x-1.41x) and AES-CTR (1.12x-1.18x); a
#: never-hit stand-in in the memo arm reads 0.98x-1.03x.  The signing
#: (1.02x-1.13x), signing-context (1.02x-1.04x), public-key
#: (0.95x-1.12x) and decapsulation (0.93x-1.11x) memos save too little
#: at this size to clear that noise, so their gates assert the counts
#: and no floor.
ENCAPS_MEMO_FLOOR = 1.08
CTR_MEMO_FLOOR = 1.06
RESULT_MEMO_ROUNDS = 7


@pytest.fixture(scope="module")
def campaign():
    coverage = CoverageMap("fault_campaign")
    start = time.perf_counter()
    result = standard_campaign(seed=SEED, injections=INJECTIONS,
                               coverage=coverage)
    wall = time.perf_counter() - start
    return result, wall, coverage


def test_campaign_meets_budget(campaign):
    result, wall, _ = campaign
    assert result.injections >= 200
    assert wall < WALL_BUDGET_S, (
        f"campaign took {wall:.1f}s for {result.injections} injections")


def test_hardened_paths_zero_silent_corruption(campaign):
    result, _, _ = campaign
    violations = result.hardened_violations()
    assert violations == [], [v.to_record() for v in violations]


def test_no_crashes_anywhere(campaign):
    result, _, _ = campaign
    assert result.outcome_totals().get(Outcome.CRASH.value, 0) == 0


def test_boot_attest_fired_faults_detected_or_recovered(campaign):
    result, _, _ = campaign
    for run in result.runs:
        if run.scenario == "boot-attest" and run.fired:
            assert run.outcome in ("detected", "recovered"), \
                run.to_record()


def test_flat_baseline_demonstrates_silent_corruption(campaign):
    result, _, _ = campaign
    flat = result.by_scenario()["rtos-flat"]
    assert flat.get("silent_corruption", 0) > 0, (
        "the unhardened baseline should show the defect class the "
        "PMP port removes")


def test_parallel_campaign_byte_identical_and_faster(campaign,
                                                     report_dir):
    """Rerun the exact campaign fanned across worker processes: the
    canonical JSON must match the serial run byte for byte, and on
    hardware with enough CPUs (CI) the wall time must beat serial."""
    serial, serial_wall, serial_cover = campaign
    parallel_cover = CoverageMap("fault_campaign")
    start = time.perf_counter()
    parallel = standard_campaign(seed=SEED, injections=INJECTIONS,
                                 jobs=PARALLEL_JOBS,
                                 coverage=parallel_cover)
    parallel_wall = time.perf_counter() - start

    assert parallel.canonical_json() == serial.canonical_json()
    # The coverage map rides the same shard-order merge: its canonical
    # JSON must be byte-identical to the serial run's too.
    assert parallel_cover.to_json() == serial_cover.to_json()

    speedup = serial_wall / parallel_wall
    write_table(
        report_dir, "fault_campaign_parallel",
        f"Fault campaign parallel: {INJECTIONS} injections across "
        f"{PARALLEL_JOBS} workers ({available_cpus()} CPUs "
        f"available), byte-identical canonical JSON",
        ["mode", "jobs", "wall", "runs/s", "speedup"],
        [["serial", 1, f"{serial_wall:.3f} s",
          f"{INJECTIONS / serial_wall:,.0f}", "1.00x"],
         ["chunked", PARALLEL_JOBS, f"{parallel_wall:.3f} s",
          f"{INJECTIONS / parallel_wall:,.0f}", f"{speedup:.2f}x"]])
    if available_cpus() >= PARALLEL_JOBS:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"campaign chunked {PARALLEL_JOBS} ways on "
            f"{available_cpus()} CPUs sped up only {speedup:.2f}x")


def test_every_fault_model_was_exercised(campaign):
    result, _, _ = campaign
    models = set(result.by_model())
    assert len(models) >= 10


def test_write_artifacts(campaign, report_dir):
    result, wall, coverage = campaign
    path = result.write(report_dir / "fault_campaign.json")
    result.write_runs_jsonl(report_dir / "fault_campaign_runs.jsonl")
    assert path.exists()

    # Perf-signature coverage over the campaign: one group per
    # scenario, distinct log-bucketized counter vectors within it.
    assert set(coverage.groups()) == set(result.scenarios)
    assert coverage.observations == result.injections
    assert coverage.distinct() > 0
    coverage.write(report_dir / "coverage_fault_campaign.json")

    totals = result.outcome_totals()
    rows = []
    for scenario in result.scenarios:
        outcomes = result.by_scenario()[scenario]
        rows.append([
            scenario,
            "yes" if scenario in result.hardened else "no",
            sum(outcomes.values()),
            outcomes.get("masked", 0),
            outcomes.get("detected", 0),
            outcomes.get("recovered", 0),
            outcomes.get("silent_corruption", 0),
            outcomes.get("crash", 0),
        ])
    rows.append([
        "TOTAL", "-", result.injections,
        totals.get("masked", 0), totals.get("detected", 0),
        totals.get("recovered", 0), totals.get("silent_corruption", 0),
        totals.get("crash", 0),
    ])
    # Named *_summary so write_table's JSON twin does not clobber the
    # canonical campaign artifact written above.
    write_table(
        report_dir, "fault_campaign_summary",
        f"Fault-injection campaign: seed={result.seed}, "
        f"{result.injections} injections in {wall:.1f}s "
        f"(hardened violations: {len(result.hardened_violations())})",
        ["scenario", "hardened", "runs", "masked", "detected",
         "recovered", "silent-corrupt", "crash"],
        rows)


def _campaign_json(scenarios):
    return run_campaign(scenarios, seed=VERDICT_SEED,
                        injections=VERDICT_INJECTIONS,
                        jobs=1).canonical_json()


def _memo_gate(report_dir, module, name, rounds, floor, artifact,
               title, columns):
    """Same campaign, same process: ``module.name`` against a
    :class:`~parity.NeverHits` baseline over ``rounds`` interleaved
    rounds (:func:`~conftest.paired_rounds`), the memo cleared before
    each of its runs, telemetry and PERF off.  Outputs are
    byte-identical, the memo misses exactly once per distinct key, and
    the median of the rounds' baseline/memo ratios reaches ``floor``
    (``None``: no floor).  Each arm builds its scenarios before the
    memo is swapped or cleared, so the counts cover the campaign's
    calls, not the calls of scenario construction that the campaign
    start clears.  ``columns`` names what the baseline asks for and
    what it builds."""
    memo = getattr(module, name)
    outputs = {}
    baselines = []

    def baseline_arm():
        scenarios = standard_scenarios()
        with never_hits(module, name) as baseline:
            outputs["baseline"] = _campaign_json(scenarios)
        baselines.append(baseline)

    def memo_arm():
        scenarios = standard_scenarios()
        memo.clear()
        outputs["memo"] = _campaign_json(scenarios)

    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        walls = paired_rounds({"baseline": baseline_arm, "memo": memo_arm},
                              rounds)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    baseline = baselines[-1]
    stats = memo.stats()
    assert outputs["memo"] == outputs["baseline"]
    assert stats["misses"] == len(baseline.keys) < baseline.calls
    assert stats["hits"] + stats["misses"] == baseline.calls

    ratio = median_ratio(walls["baseline"], walls["memo"])
    median = {arm: statistics.median(walls[arm]) for arm in walls}
    write_table(
        report_dir, artifact,
        f"{title} vs never-hit baseline: seed {VERDICT_SEED}, "
        f"{VERDICT_INJECTIONS} injections, {rounds} interleaved rounds "
        f"(speedup = median of the rounds' baseline/memo ratios; "
        f"byte-identical campaign JSON)",
        [*columns, "median wall", "runs/s", "speedup", "floor"],
        [["never-hit baseline", baseline.calls, baseline.calls,
          f"{median['baseline']:.3f} s",
          f"{VERDICT_INJECTIONS / median['baseline']:,.0f}", "1.00x", "-"],
         ["memo", baseline.calls, stats["misses"],
          f"{median['memo']:.3f} s",
          f"{VERDICT_INJECTIONS / median['memo']:,.0f}", f"{ratio:.2f}x",
          "-" if floor is None else f">= {floor:.2f}x"]])
    if floor is not None:
        assert ratio >= floor, (walls, ratio)


def test_verdict_memo_beats_never_hit_baseline(report_dir):
    """The Ed25519 verdict memo against a baseline that verifies every
    call: one verification per distinct triple."""
    _memo_gate(report_dir, ed25519, "VERDICT_MEMO", VERDICT_ROUNDS,
               VERDICT_MEMO_FLOOR, "fault_campaign_verdicts",
               "Ed25519 verdict memo",
               ["verdicts", "verify calls", "verifications"])


def test_measurement_memo_beats_never_hit_baseline(report_dir):
    """The SM-image measurement memo against a baseline that hashes
    every image: one hash per distinct image."""
    _memo_gate(report_dir, bootrom, "MEASUREMENT_MEMO",
               MEASUREMENT_ROUNDS, MEASUREMENT_MEMO_FLOOR,
               "fault_campaign_measurements", "SM-image measurement memo",
               ["measurements", "image hashes asked", "images hashed"])


@pytest.mark.parametrize("module, name, floor, artifact, title, columns", [
    (mlkem, "ENCAPS_MEMO", ENCAPS_MEMO_FLOOR,
     "fault_campaign_encapsulations", "ML-KEM encapsulation memo",
     ["encapsulations", "encaps calls", "encapsulations run"]),
    (aes, "CTR_MEMO", CTR_MEMO_FLOOR, "fault_campaign_ctr",
     "AES-CTR memo", ["keystreams", "aes_ctr calls", "keystreams run"]),
    (ed25519, "SIGN_MEMO", None, "fault_campaign_signatures",
     "Ed25519 signature memo", ["signatures", "sign calls", "signings"]),
    (ed25519, "CONTEXT_MEMO", None, "fault_campaign_signing_contexts",
     "Ed25519 signing-context memo",
     ["signing contexts", "contexts asked", "contexts built"]),
    (ed25519, "PUBLIC_KEY_MEMO", None, "fault_campaign_public_keys",
     "Ed25519 public-key memo",
     ["public keys", "derivations asked", "keys derived"]),
    (mlkem, "DECAPS_MEMO", None, "fault_campaign_decapsulations",
     "ML-KEM decapsulation memo",
     ["decapsulations", "decaps calls", "decapsulations run"]),
])
def test_result_memo_beats_never_hit_baseline(report_dir, module, name,
                                              floor, artifact, title,
                                              columns):
    """Each crypto result memo against a baseline that runs every
    call: one operation per distinct input, and a floor where the
    saving clears the runs' noise."""
    _memo_gate(report_dir, module, name, RESULT_MEMO_ROUNDS, floor,
               artifact, title, columns)
