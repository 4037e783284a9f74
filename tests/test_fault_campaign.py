"""Campaign planning, classification and deterministic export.

ISSUE 2 satellites: same seed -> byte-identical canonical JSON, the
hardened scenarios admit no silent corruption, and the flat RTOS
baseline demonstrates exactly the silent-corruption class the PMP port
removes.
"""

import json
from contextlib import ExitStack, contextmanager

import pytest

from repro.crypto import MLKEM, RESULT_MEMOS, aes, ed25519, mlkem
from repro.faults import FAULTS, FaultSpec, Outcome
from repro.faults import campaign as campaign_module
from repro.faults.campaign import (CampaignResult, FaultPoint,
                                   RunRecord, Scenario, _execute_one,
                                   classify, plan_injections,
                                   run_campaign, standard_campaign)
from repro.faults.models import BIT_FLIP
from repro.faults.scenarios import (BootAttestScenario,
                                    RtosScenario,
                                    SocFabricScenario,
                                    standard_scenarios)
from repro.obs import TELEMETRY, CoverageMap
from repro.obs.perf import PERF, counting
from repro.runtime import fork_available
from repro.tee import bootrom

from helpers import reset_telemetry

SEED = 99
SMALL = 30


@pytest.fixture(autouse=True)
def _disarmed():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


class TestClassify:
    GOLDEN = {"status": "ok", "digest": "aa"}
    EVENT = ("fired",)

    def test_crash_wins(self):
        outcome, reason, _ = classify(self.GOLDEN, {}, (),
                                      KeyError("x"))
        assert outcome is Outcome.CRASH
        assert reason == "KeyError"

    def test_detected(self):
        outcome, reason, _ = classify(
            self.GOLDEN, {"status": "detected", "reason": "ecc"},
            self.EVENT, None)
        assert outcome is Outcome.DETECTED
        assert reason == "ecc"

    def test_masked_fired(self):
        outcome, reason, _ = classify(
            self.GOLDEN, {"status": "ok", "digest": "aa"}, self.EVENT,
            None)
        assert outcome is Outcome.MASKED
        assert reason == ""

    def test_masked_not_triggered(self):
        outcome, reason, _ = classify(
            self.GOLDEN, {"status": "ok", "digest": "aa"}, (), None)
        assert outcome is Outcome.MASKED
        assert reason == "not-triggered"

    def test_recovered_needs_flag_and_event(self):
        observed = {"status": "ok", "digest": "aa", "recovered": True}
        assert classify(self.GOLDEN, observed,
                        self.EVENT, None)[0] is Outcome.RECOVERED
        assert classify(self.GOLDEN, observed, (),
                        None)[0] is Outcome.MASKED

    def test_silent_corruption(self):
        outcome, reason, _ = classify(
            self.GOLDEN, {"status": "ok", "digest": "bb"}, self.EVENT,
            None)
        assert outcome is Outcome.SILENT_CORRUPTION
        assert reason == "digest-mismatch"


class TestPlanning:
    def test_plan_is_deterministic(self):
        scenarios = (SocFabricScenario(),)
        first = plan_injections(scenarios, seed=5, injections=20)
        second = plan_injections(scenarios, seed=5, injections=20)
        assert [spec for _, spec in first] == [s for _, s in second]
        third = plan_injections(scenarios, seed=6, injections=20)
        assert [s for _, s in first] != [s for _, s in third]

    def test_points_cycle_evenly(self):
        scenarios = (SocFabricScenario(),)
        n_points = len(scenarios[0].fault_points())
        plans = plan_injections(scenarios, seed=1,
                                injections=2 * n_points)
        sites = [spec.site + spec.model for _, spec in plans]
        assert sites[:n_points] == sites[n_points:]

    def test_no_points_is_an_error(self):
        class Empty(Scenario):
            name = "empty"

            def fault_points(self):
                return ()

            def execute(self):
                return {"status": "ok", "digest": ""}

        with pytest.raises(ValueError):
            plan_injections((Empty(),), seed=1, injections=1)


class _FlakyScenario(Scenario):
    """Golden run fails -> run_campaign must refuse to start."""

    name = "flaky"

    def fault_points(self):
        return (FaultPoint("x", BIT_FLIP),)

    def execute(self):
        return {"status": "detected", "reason": "always"}


class TestRunCampaign:
    def test_rejects_failing_golden_run(self):
        with pytest.raises(RuntimeError, match="golden run"):
            run_campaign((_FlakyScenario(),), seed=1, injections=1)

    def test_injector_left_disarmed(self):
        run_campaign((SocFabricScenario(),), seed=1, injections=4)
        assert not FAULTS.enabled
        assert not FAULTS.enabled

    def test_crash_classified_not_raised(self):
        class Crashy(SocFabricScenario):
            name = "crashy"

            def execute(self):
                if FAULTS.enabled:
                    raise ZeroDivisionError("unowned")
                return super().execute()

        result = run_campaign((Crashy(),), seed=1, injections=3)
        assert result.outcome_totals() == {"crash": 3}
        assert result.runs[0].reason == "ZeroDivisionError"


class TestStandardCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return standard_campaign(seed=SEED, injections=SMALL)

    def test_runs_everything(self, result):
        assert result.injections == SMALL
        assert set(result.scenarios) == {
            "boot-attest", "attested-delivery", "rtos-protected",
            "rtos-flat", "soc-fabric"}
        assert "rtos-flat" not in result.hardened

    def test_hardened_paths_never_corrupt_silently(self, result):
        assert result.hardened_violations() == []

    def test_boot_attest_fired_faults_all_detected(self, result):
        for run in result.runs:
            if run.scenario == "boot-attest" and run.fired:
                assert run.outcome == "detected", run

    def test_flat_baseline_shows_silent_corruption(self):
        """The defect class the PMP port exists to remove must be
        visible on the unhardened baseline."""
        flat = RtosScenario(protected=False)
        result = run_campaign((flat,), seed=SEED, injections=12)
        assert result.outcome_totals().get("silent_corruption", 0) > 0
        assert result.hardened_violations() == []   # not hardened

    def test_protected_rtos_contains_everything(self):
        result = run_campaign((RtosScenario(protected=True),),
                              seed=SEED, injections=8)
        outcomes = set(result.outcome_totals())
        assert outcomes <= {"detected", "masked"}


class TestDeterministicExport:
    def test_same_seed_byte_identical_json(self, tmp_path):
        scenarios = [(BootAttestScenario(), SocFabricScenario())
                     for _ in range(2)]
        first = run_campaign(scenarios[0], seed=SEED, injections=10)
        second = run_campaign(scenarios[1], seed=SEED, injections=10)
        assert first.canonical_json() == second.canonical_json()
        path_a = first.write(tmp_path / "a.json")
        path_b = second.write(tmp_path / "b.json")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seed_differs(self):
        first = run_campaign((SocFabricScenario(),), seed=1,
                             injections=10)
        second = run_campaign((SocFabricScenario(),), seed=2,
                              injections=10)
        assert first.canonical_json() != second.canonical_json()

    def test_json_is_loadable_and_complete(self, tmp_path):
        result = run_campaign((SocFabricScenario(),), seed=3,
                              injections=6)
        loaded = json.loads(result.canonical_json())
        assert loaded["campaign"]["seed"] == 3
        assert loaded["campaign"]["injections"] == 6
        assert sum(loaded["totals"].values()) == 6
        assert len(loaded["runs"]) == 6
        assert loaded["hardened_violations"] == 0

    def test_runs_jsonl_export(self, tmp_path):
        result = run_campaign((SocFabricScenario(),), seed=3,
                              injections=4)
        path = result.write_runs_jsonl(tmp_path / "runs.jsonl")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert record["outcome"] in {o.value for o in Outcome}

    def test_run_record_roundtrip(self):
        record = RunRecord(index=0, scenario="s", site="x",
                           model=BIT_FLIP, trigger=0, count=1, bit=2,
                           magnitude=1, fired=1, outcome="masked")
        assert RunRecord(**record.to_record()) == record

    def test_campaign_result_accumulators(self):
        result = CampaignResult(seed=0, scenarios=["s"], hardened=["s"])
        result.runs.append(RunRecord(
            index=0, scenario="s", site="x", model=BIT_FLIP, trigger=0,
            count=1, bit=0, magnitude=1, fired=1,
            outcome="silent_corruption"))
        assert result.by_site() == {"x": {"silent_corruption": 1}}
        assert len(result.hardened_violations()) == 1


class _NeverHits:
    """Stand-in for a process-wide memo that builds on every call, as
    before the memo existed."""

    def get_or_build(self, key, build):
        return build()

    def clear(self):
        pass


@contextmanager
def _never_hits(module, name):
    """``module.name`` (a memo) is a :class:`_NeverHits` in the block."""
    memo = getattr(module, name)
    setattr(module, name, _NeverHits())
    try:
        yield
    finally:
        setattr(module, name, memo)


def _campaign_bytes(seed=11, jobs=1):
    """Canonical JSON, coverage map and PERF totals of one standard
    60-injection campaign, as bytes.  ``runtime.*`` counters tick only
    when a worker pool spins up, the one sanctioned jobs difference."""
    coverage = CoverageMap()
    with counting() as window:
        result = standard_campaign(seed=seed, injections=60, jobs=jobs,
                                   coverage=coverage)
    counters = {event: count for event, count
                in sorted(window.delta().items())
                if not event.startswith("runtime.")}
    return (result.canonical_json(),
            json.dumps(coverage.to_dict(), sort_keys=True),
            json.dumps(counters))


class TestVerdictMemo:
    """The Ed25519 verdict memo changes a campaign's cost, never its
    outputs: canonical JSON, coverage map and PERF totals are the same
    bytes with the memo bypassed, on, traced, sharded and warmed."""

    @pytest.fixture(scope="class")
    def reference(self):
        with _never_hits(ed25519, "VERDICT_MEMO"):
            return _campaign_bytes()

    @pytest.mark.parametrize("traced", [False, True])
    def test_memo_on(self, reference, traced):
        """Telemetry leaves the memo on: :func:`ed25519._verify` opens
        no span, so a traced campaign hits it as an untraced one does."""
        was_enabled = TELEMETRY.enabled
        TELEMETRY.enabled = traced
        try:
            outputs = _campaign_bytes()
            stats = ed25519.VERDICT_MEMO.stats()
        finally:
            TELEMETRY.enabled = was_enabled
            reset_telemetry()
        assert stats["hits"] > stats["misses"] > 0
        assert outputs == reference

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel path needs fork")
    def test_sharded(self, reference):
        assert _campaign_bytes(jobs=2) == reference

    def test_warm_start_is_cleared(self, reference):
        _campaign_bytes(seed=12)
        assert ed25519.VERDICT_MEMO.stats()["size"] > 0
        assert _campaign_bytes() == reference

    def test_each_distinct_triple_verified_once(self, monkeypatch):
        """As the bench runs it: coverage on, global PERF off.  Golden
        verdicts are built with PERF off, so they carry no delta to
        replay, and the first coverage run (PERF on) that hits one
        rebuilds it once; every other repeat is a hit."""
        verified = {False: [], True: []}     # PERF.enabled -> triples
        real = ed25519._verify

        def recording(public, message, signature):
            verified[PERF.enabled].append(
                (bytes(public), bytes(message), bytes(signature)))
            return real(public, message, signature)

        monkeypatch.setattr(ed25519, "_verify", recording)
        monkeypatch.setattr(PERF, "enabled", False)
        _campaign_bytes(seed=12)            # warm: the start clears it
        verified[False].clear()
        verified[True].clear()
        standard_campaign(seed=11, injections=60, jobs=1,
                          coverage=CoverageMap())
        stats = ed25519.VERDICT_MEMO.stats()
        golden, runs = verified[False], verified[True]
        assert len(golden) == len(set(golden)) > 0
        assert len(runs) == len(set(runs))
        assert len(set(golden) | set(runs)) == stats["misses"]
        assert stats["hits"] > stats["misses"]


#: The result memos beside the verdict memo, as ``(module, name)``.
_RESULT_MEMOS = ((ed25519, "SIGN_MEMO"), (ed25519, "CONTEXT_MEMO"),
                 (ed25519, "PUBLIC_KEY_MEMO"), (mlkem, "ENCAPS_MEMO"),
                 (mlkem, "DECAPS_MEMO"), (aes, "CTR_MEMO"))


@contextmanager
def _result_memos_never_hit():
    with ExitStack() as stack:
        for module, name in _RESULT_MEMOS:
            stack.enter_context(_never_hits(module, name))
        yield


class TestResultMemos:
    """The signing, key-derivation, ML-KEM and AES-CTR memos change a
    campaign's cost, never its outputs: canonical JSON, coverage map and
    PERF totals are the same bytes cold, warm and with every one of
    them a never-hit stand-in, serial and sharded."""

    @pytest.fixture(scope="class")
    def reference(self):
        with _result_memos_never_hit():
            return _campaign_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("state", ["cold", "warm", "never-hit"])
    def test_outputs_unchanged(self, reference, monkeypatch, state, jobs):
        """Warm: a previous campaign filled the memos and this one does
        not clear them, so its runs replay the stored PERF deltas."""
        if jobs > 1 and not fork_available():
            pytest.skip("parallel path needs fork")
        with ExitStack() as stack:
            if state == "warm":
                _campaign_bytes(seed=12)
                monkeypatch.setattr(campaign_module, "RESULT_MEMOS", ())
                for module, name in _RESULT_MEMOS:
                    assert getattr(module, name).stats()["size"] > 0, name
            elif state == "never-hit":
                stack.enter_context(_result_memos_never_hit())
            outputs = _campaign_bytes(jobs=jobs)
        assert outputs == reference

    @pytest.mark.parametrize("seed", [11, 2026])
    def test_each_memo_hits_from_a_cold_start(self, seed):
        """Every memo hits in a campaign, and the campaign clears them
        at its start: after another campaign, its hits and misses are
        those of a cold process."""
        def campaign_stats():
            standard_campaign(seed=seed, injections=60, jobs=1)
            return {name: getattr(module, name).stats()
                    for module, name in _RESULT_MEMOS}

        for memo in RESULT_MEMOS:
            memo.clear()
        cold = campaign_stats()
        standard_campaign(seed=seed + 1, injections=60, jobs=1)
        assert campaign_stats() == cold
        for name, stats in cold.items():
            assert stats["hits"] >= 1 and stats["misses"] >= 1, \
                (name, stats)

    def test_drawn_encapsulation_never_hits(self):
        kem = MLKEM()
        ek, dk = kem.key_gen(bytes(32), bytes(32))
        mlkem.ENCAPS_MEMO.clear()
        first, second = kem.encaps(ek), kem.encaps(ek)
        assert mlkem.ENCAPS_MEMO.stats()["hits"] == 0
        assert first != second
        assert kem.decaps(dk, first[1]) == first[0]
        assert kem.encaps(ek, bytes(32)) == kem.encaps(ek, bytes(32))
        assert mlkem.ENCAPS_MEMO.stats()["hits"] == 1

    @pytest.mark.parametrize("trigger, reason", [
        (0, "boot-verification-failed"),
        (1, "attestation-verification-failed")])
    def test_boot_signature_corruption_lands_on_a_hit(self, trigger,
                                                      reason):
        """The ``tee.bootrom.sign`` hook corrupts the signature after
        :meth:`SigningKey.sign` returns it, so a memo hit is corrupted
        as a fresh signature is."""
        scenario = BootAttestScenario()
        golden = scenario.execute()
        spec = FaultSpec("tee.bootrom.sign", BIT_FLIP, trigger=trigger,
                         bit=7)
        _execute_one(0, scenario, spec, golden)       # fills the memos
        hits = ed25519.SIGN_MEMO.hits
        warm = _execute_one(0, scenario, spec, golden)
        assert ed25519.SIGN_MEMO.hits > hits
        with _result_memos_never_hit():
            fresh = _execute_one(0, scenario, spec, golden)
        assert warm == fresh
        assert (warm.fired, warm.outcome, warm.reason) == \
            (1, "detected", reason)


class TestMeasurementMemo:
    """The SM-image measurement memo changes a campaign's cost, never
    its outputs: canonical JSON, coverage map and PERF totals are the
    same bytes with a never-hit stand-in, serial and sharded."""

    @pytest.fixture(scope="class")
    def reference(self):
        with _never_hits(bootrom, "MEASUREMENT_MEMO"):
            return _campaign_bytes()

    def test_memo_on(self, reference):
        bootrom.MEASUREMENT_MEMO.clear()
        outputs = _campaign_bytes()
        stats = bootrom.MEASUREMENT_MEMO.stats()
        assert stats["hits"] > stats["misses"] > 0
        assert outputs == reference

    def test_warm_memo(self, reference):
        _campaign_bytes(seed=12)
        assert bootrom.MEASUREMENT_MEMO.stats()["size"] > 0
        assert _campaign_bytes() == reference

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel path needs fork")
    def test_sharded(self, reference):
        bootrom.MEASUREMENT_MEMO.clear()
        assert _campaign_bytes(jobs=2) == reference
