"""The coverage-guided adversary campaign loop.

:class:`AdversaryCampaign` closes ROADMAP item 4's feedback loop over
the PR 2/4/6 machinery: seeded generation (generation 0 is fresh
:func:`~repro.faults.adversary.mutators.derive_seed` draws per
family), execution fanned across ``REPRO_JOBS`` workers with the PR 4
sharding engine, PR 6 :class:`~repro.obs.coverage.CoverageMap`
novelty as the steering signal (a run whose log-bucketized PERF-delta
signature is new keeps its case in the corpus and schedules
neighborhood mutations of it next generation), and the PR 4
:class:`~repro.runtime.memo.Memo` deduplicating re-derived cases so a
10^5-injection budget is not spent re-executing the same attack.

Determinism survives the feedback loop because every global decision
is made in the parent, in candidate order:

1. candidates for a generation are a pure function of the campaign
   seed and the previous generation's corpus additions (themselves
   deterministic, inductively);
2. workers only *execute* — each returns compact
   :class:`~repro.faults.adversary.families.CaseRecord` payloads
   (outcome + signature), keyed results folded back in chunk order
   via :func:`~repro.runtime.executor.run_sharded`'s bounded-memory
   ``fold`` hook;
3. the parent then walks the candidate list in order, consulting the
   memo, folding signatures into the coverage map and making every
   keep/violation decision serially — so corpus, coverage and
   campaign JSON are byte-identical for any worker count.

The hardening gate rides on the same walk: a hardened family's run
classifying outside masked/detected/recovered is recorded as a
violation, its op sequence is delta-debug minimized
(:func:`~repro.faults.adversary.shrink.shrink_case`) and the result
is exported as a replayable repro artifact (:func:`replay` re-runs
any corpus or violation record bit-identically).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from ...crypto import RESULT_MEMOS
from ...obs import TELEMETRY
from ...obs.audit import AUDIT
from ...obs.coverage import CoverageMap
from ...runtime import chunk_bounds, resolve_jobs, run_sharded
from ...runtime.memo import Memo
from ..campaign import MAX_RUNS_PER_CHUNK, MIN_RUNS_PER_JOB
from .families import (AdversaryCase, acceptable_on_hardened,
                       run_case, standard_families)
from .mutators import derive_seed, ops_to_json
from .shrink import shrink_case

#: Corpus schema version (bump on incompatible layout changes).
CORPUS_SCHEMA_VERSION = 1

#: Violations minimized per campaign: each shrink is worth up to
#: ~256 extra executions, and the first few repros are the actionable
#: ones (the gate fails on *any* violation regardless).
MAX_SHRINK_VIOLATIONS = 8


@dataclass
class AdversaryCampaignResult:
    """Everything one adversary campaign produced."""

    seed: int
    generations: int
    population: int
    families: list
    hardened: list
    injections: int = 0               # candidates scheduled (plan size)
    executed: int = 0                 # actually run (memo misses)
    memo_hits: int = 0
    totals: dict = field(default_factory=dict)
    by_family: dict = field(default_factory=dict)
    corpus: list = field(default_factory=list)      # CaseRecords
    violations: list = field(default_factory=list)  # plain dicts
    coverage_distinct: int = 0
    coverage_observations: int = 0

    def hardened_violations(self) -> list:
        return list(self.violations)

    def corpus_dict(self) -> dict:
        """The standalone replayable corpus artifact."""
        return {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "name": "adversary-corpus",
            "seed": self.seed,
            "entries": [record.to_record() for record in self.corpus],
        }

    def to_dict(self) -> dict:
        payload = {
            "adversary": {
                "seed": self.seed,
                "generations": self.generations,
                "population": self.population,
                "injections": self.injections,
                "executed": self.executed,
                "memo_hits": self.memo_hits,
                "families": list(self.families),
                "hardened": list(self.hardened),
            },
            "totals": dict(sorted(self.totals.items())),
            "by_family": {family: dict(sorted(counts.items()))
                          for family, counts
                          in sorted(self.by_family.items())},
            "coverage": {
                "distinct": self.coverage_distinct,
                "observations": self.coverage_observations,
            },
            "corpus_size": len(self.corpus),
            "hardened_violations": len(self.violations),
            "violations": list(self.violations),
        }
        return payload

    def canonical_json(self) -> str:
        """Deterministic serialization (no timestamps, sorted keys)."""
        return json.dumps(self.to_dict(), indent=2,
                          sort_keys=True) + "\n"

    def corpus_json(self) -> str:
        return json.dumps(self.corpus_dict(), indent=2,
                          sort_keys=True) + "\n"

    def write(self, path) -> pathlib.Path:
        from ...obs.export import atomic_write_text
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.canonical_json())
        return path

    def write_corpus(self, path) -> pathlib.Path:
        from ...obs.export import atomic_write_text
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.corpus_json())
        return path


def _execute_cases(state, bounds) -> list:
    """Worker body: run one contiguous chunk of unique cases (with
    PERF-delta signatures) and return plain picklable records."""
    families_by_name, cases = state
    lo, hi = bounds
    return [run_case(families_by_name[case.family], case,
                     with_vector=True)
            for case in cases[lo:hi]]


class AdversaryCampaign:
    """The coverage-guided fuzzing loop over a family suite.

    ``coverage`` may be supplied to share state across campaigns (e.g.
    resuming from a previous corpus); by default each campaign owns a
    fresh map.  Each campaign owns its memo.
    """

    def __init__(self, families=None, seed: int = 2026,
                 coverage: CoverageMap = None,
                 shrink_budget: int = MAX_SHRINK_VIOLATIONS):
        self.families = (tuple(families) if families is not None
                         else standard_families())
        self._by_name = {f.name: f for f in self.families}
        if len(self._by_name) != len(self.families):
            raise ValueError("duplicate family names")
        self.seed = seed
        self.coverage = (coverage if coverage is not None
                         else CoverageMap("adversary"))
        self.memo = Memo(maxsize=1 << 17)
        self.shrink_budget = shrink_budget
        self._hardened = {f.name for f in self.families if f.hardened}
        self._weighted = [f for f in self.families
                          for _ in range(max(1, f.weight))]

    # -- candidate scheduling (parent-side, deterministic) ----------------

    def _fresh(self, generation: int, count: int) -> list:
        """Fresh generation-``generation`` cases, families interleaved
        by weight, every seed a pure function of the campaign seed."""
        return [
            family.generate(derive_seed(self.seed, "fresh", generation,
                                        family.name, index))
            for index, family in (
                (i, self._weighted[i % len(self._weighted)])
                for i in range(count))
        ]

    def _next_candidates(self, generation: int, parents: list,
                         population: int) -> list:
        """The next generation: neighborhood mutations of the corpus
        entries that were novel last generation (round-robin, cycling
        through the parents) topped up with a
        fresh exploration quarter.  No novelty last round -> full
        fresh restart for the generation."""
        if not parents:
            return self._fresh(generation, population)
        fresh_count = max(1, population // 4)
        children = []
        index = 0
        while len(children) < population - fresh_count:
            parent = parents[index % len(parents)].case
            family = self._by_name[parent.family]
            children.append(family.mutate(
                parent, derive_seed(self.seed, "mutate", generation,
                                    parent.seed, index)))
            index += 1
        return children + self._fresh(generation, fresh_count)

    # -- one generation ----------------------------------------------------

    def _execute_unique(self, candidates: list, jobs) -> dict:
        """Execute the not-yet-memoized first occurrences among
        ``candidates`` across workers; returns ``key -> CaseRecord``."""
        pending = set()
        unique = []
        for case in candidates:
            key = case.key()
            if key in self.memo or key in pending:
                continue
            pending.add(key)
            unique.append(case)
        results = {}

        def fold(chunk_records):
            for record in chunk_records:
                results[record.case.key()] = record

        if unique:
            jobs = resolve_jobs(jobs, work=len(unique),
                                min_work_per_job=MIN_RUNS_PER_JOB)
            chunks = max(jobs, (len(unique) + MAX_RUNS_PER_CHUNK - 1)
                         // MAX_RUNS_PER_CHUNK)
            run_sharded(_execute_cases, (self._by_name, unique),
                        chunk_bounds(len(unique), chunks), jobs=jobs,
                        fold=fold)
        return results

    def _fold_candidate(self, case, results: dict, result, added: list):
        """Parent-side, in-order fold of one candidate: memo, tally,
        coverage novelty, corpus keep, hardening gate."""
        key = case.key()
        found, record = self.memo.lookup(key)
        if found:
            result.memo_hits += 1
        else:
            record = results.get(key)
            if record is None:
                # The planned source record was evicted between plan
                # and fold (bounded memo): re-execute in the parent —
                # rare, deterministic, identical result.
                record = run_case(self._by_name[case.family], case,
                                  with_vector=True)
            result.executed += 1
            self.memo.store(key, record)
        result.injections += 1
        result.totals[record.outcome] = \
            result.totals.get(record.outcome, 0) + 1
        family_counts = result.by_family.setdefault(case.family, {})
        family_counts[record.outcome] = \
            family_counts.get(record.outcome, 0) + 1
        if self.coverage.observe(case.family, record.signature):
            self.corpus_records.append(record)
            result.corpus.append(record)
            added.append(record)
            if AUDIT.enabled:
                # Novel PERF-delta behaviour: the perf-outlier
                # detector checks it against the calibrated golden
                # baseline.
                AUDIT.emit("faults.adversary", "perf-signature",
                           family=case.family,
                           signature=[[event, bucket] for event, bucket
                                      in record.signature])
        if case.family in self._hardened \
                and not acceptable_on_hardened(record.outcome):
            self._record_violation(record, result)

    def _record_violation(self, record, result) -> None:
        """The hardening gate tripped: minimize and emit a repro."""
        if AUDIT.enabled:
            AUDIT.emit("faults.adversary", "hardening-violation",
                       severity="critical",
                       family=record.case.family,
                       outcome=record.outcome, reason=record.reason)
        violation = record.to_record()
        if len(result.violations) < self.shrink_budget:
            family = self._by_name[record.case.family]
            minimized, evals = shrink_case(family, record.case)
            violation["minimized_ops"] = ops_to_json(minimized.ops)
            violation["shrink_evals"] = evals
        result.violations.append(violation)

    # -- the loop ----------------------------------------------------------

    def run(self, generations: int = 8, population: int = 128,
            jobs: int = None) -> AdversaryCampaignResult:
        """Run the full loop: ``generations * population`` scheduled
        injections, coverage-steered from generation 1 on."""
        if generations < 1 or population < 1:
            raise ValueError("generations and population must be >= 1")
        result = AdversaryCampaignResult(
            seed=self.seed, generations=generations,
            population=population,
            families=[f.name for f in self.families],
            hardened=sorted(self._hardened))
        self.corpus_records = []
        # Cold start, as a fault campaign's: the crypto result memos are
        # cleared before any case runs or forks, so a campaign's cost
        # is its own.
        for memo in RESULT_MEMOS:
            memo.clear()
        if AUDIT.enabled:
            AUDIT.emit("faults.adversary", "campaign-start",
                       seed=self.seed, generations=generations,
                       population=population,
                       families=[f.name for f in self.families])
        candidates = self._fresh(0, population)
        with TELEMETRY.span("adversary.campaign", seed=self.seed,
                            generations=generations,
                            population=population) as campaign_span:
            for generation in range(generations):
                added = []
                with TELEMETRY.span("adversary.generation",
                                    generation=generation,
                                    candidates=len(candidates)):
                    results = self._execute_unique(candidates, jobs)
                    for case in candidates:
                        self._fold_candidate(case, results, result,
                                             added)
                if generation + 1 < generations:
                    candidates = self._next_candidates(
                        generation + 1, added, population)
            if TELEMETRY.enabled:
                campaign_span.set_attr("injections", result.injections)
                campaign_span.set_attr("corpus", len(result.corpus))
                campaign_span.set_attr("violations",
                                       len(result.violations))
        result.coverage_distinct = self.coverage.distinct()
        result.coverage_observations = self.coverage.observations
        if AUDIT.enabled:
            AUDIT.emit("faults.adversary", "campaign-end",
                       seed=self.seed, injections=result.injections,
                       executed=result.executed,
                       memo_hits=result.memo_hits,
                       corpus=len(result.corpus),
                       violations=len(result.violations))
        return result


def standard_adversary_campaign(seed: int = 2026,
                                generations: int = 8,
                                population: int = 128,
                                jobs: int = None,
                                coverage: CoverageMap = None
                                ) -> AdversaryCampaignResult:
    """One-call entry point over :func:`~repro.faults.adversary.
    families.standard_families` (what the bench, the smoke step and
    ``scripts/adversary_report.py --run`` use)."""
    campaign = AdversaryCampaign(seed=seed, coverage=coverage)
    return campaign.run(generations=generations,
                        population=population, jobs=jobs)


def replay(entry: dict):
    """Re-run one corpus/violation record (or any dict with
    ``family``/``seed``/``generation``/``ops``); returns the freshly
    classified :class:`~repro.faults.adversary.families.CaseRecord`.
    Replays are bit-identical: the case is a pure function of its
    record and every family executes deterministically."""
    case = AdversaryCase.from_record(entry)
    by_name = {f.name: f for f in standard_families()}

    if case.family not in by_name:
        raise ValueError(f"unknown adversary family {case.family!r}")
    return run_case(by_name[case.family], case)


def load_corpus(path) -> list:
    """The entries of a corpus artifact written by
    :meth:`AdversaryCampaignResult.write_corpus`."""
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("schema_version")
    if version != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported corpus schema_version {version!r}")
    return list(payload.get("entries", ()))
