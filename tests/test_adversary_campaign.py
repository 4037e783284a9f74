"""The coverage-guided adversary campaign loop (ISSUE 7 tentpole).

Small-budget campaigns pinning the loop's contracts: byte-identical
results for any worker count and across repeated runs, memo dedup
accounting, coverage novelty steering, the hardening gate with
delta-debug minimized replayable violations, and corpus replay.
"""

import json

import pytest

from repro.crypto import RESULT_MEMOS
from repro.faults.adversary import (AdversaryCampaign, AdversaryCase,
                                    load_corpus, replay, run_case,
                                    standard_adversary_campaign,
                                    standard_families)
from repro.faults.adversary.families import TaskProgramAdversary
from repro.obs import CoverageMap
from repro.runtime import run_sharded

from parity import assert_parity

SEED = 99


@pytest.fixture(scope="module")
def small():
    """One small standard campaign shared across read-only tests."""
    return standard_adversary_campaign(seed=SEED, generations=3,
                                       population=30, jobs=1)


def _adversary(jobs, generations=3, population=30) -> bytes:
    """Campaign JSON, corpus and coverage map of a standard adversary
    campaign."""
    cover = CoverageMap("adversary")
    result = standard_adversary_campaign(
        seed=SEED, generations=generations, population=population,
        jobs=jobs, coverage=cover)
    return (result.canonical_json() + result.corpus_json()
            + cover.to_json()).encode()


class TestDeterminism:
    def test_every_arm_identical(self):
        """Byte-identical for any worker count and across repeated runs,
        cold, warm, with never-hit memos, traced and audited."""
        assert_parity(_adversary)

    def test_rerun_restarts_result_memos(self):
        """A campaign clears the crypto result memos at its start: rerun
        after a cold run filled them, each memo's hits and misses are
        those of the cold run."""
        def stats():
            _adversary(1, 2, 20)
            return [memo.stats() for memo in RESULT_MEMOS]

        stats()             # builds the process's one-time state first
        for memo in RESULT_MEMOS:
            memo.clear()
        cold = stats()
        assert any(memo["hits"] for memo in cold)
        assert stats() == cold

    def test_different_seed_different_campaign(self, small):
        other = standard_adversary_campaign(seed=SEED + 1,
                                            generations=3,
                                            population=30, jobs=1)
        assert other.canonical_json() != small.canonical_json()


class TestAccounting:
    def test_injection_accounting(self, small):
        assert small.injections == 3 * 30
        assert small.executed + small.memo_hits == small.injections
        assert sum(small.totals.values()) == small.injections

    def test_by_family_sums_to_totals(self, small):
        merged = {}
        for outcomes in small.by_family.values():
            for outcome, count in outcomes.items():
                merged[outcome] = merged.get(outcome, 0) + count
        assert merged == small.totals

    def test_coverage_stats_recorded(self, small):
        assert small.coverage_observations == small.injections
        assert 0 < small.coverage_distinct <= small.injections
        assert len(small.corpus) == small.coverage_distinct


    def test_rejects_degenerate_budgets(self):
        with pytest.raises(ValueError):
            AdversaryCampaign(seed=SEED).run(generations=0,
                                             population=10)
        with pytest.raises(ValueError):
            AdversaryCampaign(seed=SEED).run(generations=1,
                                             population=0)


class TestCoverageSteering:

    def test_later_generations_mutate_corpus_parents(self, small):
        generations = {entry.case.generation
                       for entry in small.corpus}
        assert 0 in generations
        assert any(g > 0 for g in generations), (
            "no corpus entry came from a mutation — the feedback "
            "loop never steered")


class TestHardeningGate:
    def test_standard_campaign_zero_violations(self, small):
        assert small.hardened_violations() == []

    def test_violations_minimized_and_replayable(self):
        """Declaring the flat baseline hardened makes its real
        silent-corruption class trip the gate: violations must carry a
        delta-debug minimized op sequence that replays the outcome."""
        family = TaskProgramAdversary(protected=False)
        family.hardened = True
        campaign = AdversaryCampaign(families=[family], seed=SEED)
        result = campaign.run(generations=3, population=30, jobs=1)
        assert result.violations, (
            "flat task family produced no silent corruption at this "
            "budget — grow the population")
        violation = result.violations[0]
        assert violation["outcome"] in ("silent_corruption", "crash")
        assert "minimized_ops" in violation
        assert len(violation["minimized_ops"]) <= \
            len(violation["ops"])
        minimized = AdversaryCase.from_record(
            {**violation, "ops": violation["minimized_ops"]})
        record = run_case(family, minimized)
        assert record.outcome == violation["outcome"]
        assert record.reason == violation["reason"]


class TestCorpusReplay:
    def test_corpus_entries_replay_bit_identical(self, small):
        entries = small.corpus_dict()["entries"]
        for entry in entries[:10]:
            record = replay(entry)
            assert record.outcome == entry["outcome"]
            assert record.reason == entry["reason"]
            assert record.digest == entry["digest"]

    def test_corpus_artifact_round_trip(self, small, tmp_path):
        path = small.write_corpus(tmp_path / "corpus.json")
        entries = load_corpus(path)
        assert len(entries) == len(small.corpus)
        assert entries == small.corpus_dict()["entries"]

    def test_load_corpus_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "entries": []}))
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_replay_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            replay({"family": "no-such-family", "seed": 1,
                    "generation": 0, "ops": []})


class TestFamilySuite:
    def test_standard_families_unique_and_weighted(self):
        families = standard_families()
        names = [f.name for f in families]
        assert len(set(names)) == len(names)
        assert all(f.weight >= 1 for f in families)
        assert any(f.hardened for f in families)
        assert any(not f.hardened for f in families)

    def test_case_record_round_trip(self):
        family = standard_families()[0]
        case = family.generate(1234)
        assert AdversaryCase.from_record(case.to_record()) == case


class TestShardedFold:
    def test_fold_streams_in_shard_order(self):
        seen = []
        returned = run_sharded(lambda state, shard: shard * 2,
                               None, [1, 2, 3], jobs=1,
                               fold=seen.append)
        assert returned is None
        assert seen == [2, 4, 6]

    def test_fold_parallel_matches_serial(self):
        serial, parallel = [], []
        run_sharded(lambda state, shard: shard * shard, None,
                    list(range(6)), jobs=1, fold=serial.append)
        run_sharded(lambda state, shard: shard * shard, None,
                    list(range(6)), jobs=2, fold=parallel.append)
        assert parallel == serial
