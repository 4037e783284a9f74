"""Seeded fault-injection campaigns: plan, run, classify, export.

A campaign fans a deterministic grid of single faults over one or more
*scenarios* (end-to-end workloads with golden results), classifies
every run into the :class:`~repro.faults.report.Outcome` taxonomy and
aggregates per-model / per-site / per-scenario outcome counts.  The
whole pipeline is a pure function of ``(scenarios, seed, injections)``:
two campaigns with the same seed produce byte-identical canonical JSON
— the contract the determinism test pins.

Artifacts ride on the existing observability machinery: per-run
records export as JSONL via :func:`repro.obs.export.write_jsonl`; when
:data:`repro.obs.TELEMETRY` is enabled the runner emits spans for the
whole campaign, the golden phase, planning and every injection run.
Each run span carries its scenario, outcome and number of faults
fired; the campaign span carries the ``outcome.*`` totals.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field

from ..crypto import RESULT_MEMOS
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.coverage import CoverageMap
from ..obs.export import write_jsonl
from ..obs.perf import PERF
from ..runtime import chunk_bounds, resolve_jobs, run_sharded
from .injector import FAULTS, FaultSpec
from .report import ACCEPTABLE_ON_HARDENED, Outcome

#: An env-requested parallel campaign stays serial below this many
#: injection runs per worker — pool startup would dominate.
MIN_RUNS_PER_JOB = 16

#: Campaign-scale chunking: plans longer than this per shard are split
#: into more chunks than workers, so each worker ships its telemetry
#: capture (and coverage map) back in bounded pieces, and the parent
#: holds one chunk's capture and records in flight at a time.  Short
#: campaigns (the benches) keep exactly one chunk per worker, leaving
#: their recorded shard counters unchanged.
MAX_RUNS_PER_CHUNK = 512


@dataclass(frozen=True)
class FaultPoint:
    """One place in a scenario where a grid of faults can be planted.

    The campaign planner draws concrete :class:`FaultSpec` parameters
    from the ranges declared here: ``trigger`` uniformly from
    ``range(triggers)``, ``bit`` from ``range(bits)`` (when > 0) and
    ``magnitude`` from the ``magnitudes`` tuple.
    """

    site: str
    model: str
    triggers: int = 1
    bits: int = 0
    magnitudes: tuple = (1,)
    count: int = 1
    weight: int = 1


class Scenario:
    """One end-to-end workload a campaign injects faults into.

    Subclasses declare ``name`` (stable identifier), ``hardened``
    (whether silent corruption on this scenario is a defect) and
    implement :meth:`fault_points` plus :meth:`execute`.

    ``execute`` must be deterministic and return a dict with at least
    ``status`` ("ok" or "detected"), ``reason`` (machine-readable, for
    detected runs) and ``digest`` (hex string capturing the
    architectural result; compared against the golden run).  It may
    set ``recovered`` (bool) when an explicit retry/containment
    repaired a transient fault.  Expected, typed failures must be
    caught and reported as ``status="detected"`` — anything that
    escapes is classified as a crash.
    """

    name = "scenario"
    hardened = True


@dataclass
class RunRecord:
    """One classified injection run (everything JSON-native)."""

    index: int
    scenario: str
    site: str
    model: str
    trigger: int
    count: int
    bit: int
    magnitude: int
    fired: int
    outcome: str
    reason: str = ""
    detail: str = ""

    def to_record(self) -> dict:
        return dict(self.__dict__)


def _count_outcomes(runs, key) -> dict:
    counts = {}
    for run in runs:
        bucket = counts.setdefault(key(run), {})
        bucket[run.outcome] = bucket.get(run.outcome, 0) + 1
    return {k: dict(sorted(v.items())) for k, v in sorted(counts.items())}


@dataclass
class CampaignResult:
    """Everything one campaign produced, exportable as canonical JSON."""

    seed: int
    scenarios: list
    hardened: list
    runs: list = field(default_factory=list)

    @property
    def injections(self) -> int:
        return len(self.runs)

    def outcome_totals(self) -> dict:
        totals = {}
        for run in self.runs:
            totals[run.outcome] = totals.get(run.outcome, 0) + 1
        return dict(sorted(totals.items()))

    def by_model(self) -> dict:
        return _count_outcomes(self.runs, lambda r: r.model)

    def by_site(self) -> dict:
        return _count_outcomes(self.runs, lambda r: r.site)

    def by_scenario(self) -> dict:
        return _count_outcomes(self.runs, lambda r: r.scenario)

    def hardened_violations(self) -> list:
        """Runs on hardened scenarios outside the acceptable outcomes."""
        acceptable = {o.value for o in ACCEPTABLE_ON_HARDENED}
        return [run for run in self.runs
                if run.scenario in self.hardened
                and run.outcome not in acceptable]

    def to_dict(self) -> dict:
        return {
            "campaign": {
                "seed": self.seed,
                "injections": self.injections,
                "scenarios": list(self.scenarios),
                "hardened": list(self.hardened),
            },
            "totals": self.outcome_totals(),
            "by_model": self.by_model(),
            "by_site": self.by_site(),
            "by_scenario": self.by_scenario(),
            "hardened_violations": len(self.hardened_violations()),
            "runs": [run.to_record() for run in self.runs],
        }

    def canonical_json(self) -> str:
        """Deterministic serialization (no timestamps, sorted keys)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> pathlib.Path:
        from ..obs.export import atomic_write_text
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.canonical_json())
        return path

    def write_runs_jsonl(self, path) -> pathlib.Path:
        return write_jsonl([run.to_record() for run in self.runs], path)


# -- planning ------------------------------------------------------------

def plan_injections(scenarios, seed: int, injections: int) -> list:
    """The deterministic fault grid: ``[(scenario, FaultSpec), ...]``.

    Fault points are cycled in declaration order (so every point gets
    near-equal coverage regardless of the injection budget) while the
    seeded RNG draws the free parameters of each spec.
    """
    rng = random.Random(seed)
    points = []
    for scenario in scenarios:
        for point in scenario.fault_points():
            points.extend([(scenario, point)] * max(1, point.weight))
    if not points:
        raise ValueError("no fault points declared by any scenario")
    plans = []
    for index in range(injections):
        scenario, point = points[index % len(points)]
        spec = FaultSpec(
            site=point.site,
            model=point.model,
            trigger=rng.randrange(point.triggers) if point.triggers > 1
            else 0,
            count=point.count,
            bit=rng.randrange(point.bits) if point.bits else 0,
            magnitude=rng.choice(point.magnitudes),
        )
        plans.append((scenario, spec))
    return plans


# -- classification ------------------------------------------------------

def classify(golden: dict, observed: dict, events: tuple,
             crash: Exception) -> tuple:
    """Map one run to ``(Outcome, reason, detail)``; ``crash`` is the
    exception the run raised, or None."""

    fired = bool(events)
    if crash is not None:
        return (Outcome.CRASH, type(crash).__name__, str(crash)[:200])
    if observed.get("status") == "detected":
        return (Outcome.DETECTED, observed.get("reason", ""),
                observed.get("detail", ""))
    if observed.get("digest") == golden.get("digest"):
        if fired and observed.get("recovered"):
            return (Outcome.RECOVERED, observed.get("reason", "retry"),
                    observed.get("detail", ""))
        return (Outcome.MASKED,
                "" if fired else "not-triggered", "")
    return (Outcome.SILENT_CORRUPTION, "digest-mismatch",
            f"got {observed.get('digest', '')[:16]} want "
            f"{golden.get('digest', '')[:16]}")


# -- running -------------------------------------------------------------

def run_campaign(scenarios, seed: int = 2026, injections: int = 200,
                 jobs: int = None,
                 coverage: CoverageMap = None) -> CampaignResult:
    """Execute a full campaign; always leaves the injector disarmed.

    ``jobs`` > 1 (or ``REPRO_JOBS`` when omitted) executes the
    injection runs across worker processes.  Every run is independent
    by construction — the plan is fixed up front and the injector is
    armed/disarmed around each run — so chunks of the plan merge back
    in run-index order into the exact serial record list and the
    canonical JSON stays byte-identical for any worker count.

    ``coverage`` (a :class:`~repro.obs.coverage.CoverageMap`) enables
    the ROADMAP-4 steering signal: every run's architectural
    perf-counter delta is log-bucketized into a signature and folded
    into the map under the scenario name.  Per-run deltas are
    deterministic, and per-chunk maps merge by set union in shard
    order, so the map's canonical JSON is byte-identical for any
    worker count too.
    """
    with TELEMETRY.span("faults.campaign", seed=seed,
                        injections=injections,
                        scenarios=len(scenarios)) as campaign_span:
        result = _run_campaign(scenarios, seed, injections, jobs,
                               campaign_span, coverage)
        if TELEMETRY.enabled:
            campaign_span.set_attr("hardened_violations",
                                   len(result.hardened_violations()))
            for outcome, total in result.outcome_totals().items():
                campaign_span.set_attr(f"outcome.{outcome}", total)
        return result


def _execute_one(index: int, scenario, spec, golden: dict,
                 cover: CoverageMap = None) -> RunRecord:
    """Arm, execute, disarm and classify one planned injection."""
    with TELEMETRY.span("faults.campaign.run",
                        scenario=scenario.name, site=spec.site,
                        model=spec.model) as run_span:
        if cover is not None:
            # Coverage needs per-run counter deltas even when the
            # global PERF switch is off; force it for the run window
            # and restore (counts accumulate, deltas isolate the run).
            perf_was = PERF.enabled
            PERF.enabled = True
            perf_before = PERF.snapshot()
        FAULTS.arm(spec)
        observed, crash = None, None
        try:
            observed = scenario.execute()
        except Exception as exc:          # crash class: nothing owned it
            crash = exc
        finally:
            events = FAULTS.disarm()
        if cover is not None:
            cover.observe(scenario.name,
                          PERF.snapshot() - perf_before)
            PERF.enabled = perf_was
        outcome, reason, detail = classify(golden, observed or {},
                                           events, crash)
        if PERF.enabled:
            PERF.inc("faults.campaign.runs")
        if TELEMETRY.enabled:
            run_span.set_attr("outcome", outcome.value)
            run_span.set_attr("fired", len(events))
    return RunRecord(
        index=index, scenario=scenario.name, site=spec.site,
        model=spec.model, trigger=spec.trigger, count=spec.count,
        bit=spec.bit, magnitude=spec.magnitude, fired=len(events),
        outcome=outcome.value, reason=reason, detail=detail)


def _execute_plan_range(state, bounds) -> tuple:
    """Execute one contiguous chunk of the plan (serially inline, or
    inside a forked pool worker); returns plain picklable records plus
    the chunk's exported coverage map (or ``None``)."""
    plans, golden, want_coverage = state
    lo, hi = bounds
    cover = CoverageMap() if want_coverage else None
    records = [_execute_one(index, scenario, spec,
                            golden[scenario.name], cover)
               for index, (scenario, spec)
               in enumerate(plans[lo:hi], start=lo)]
    return records, cover.to_dict() if cover is not None else None


def _run_campaign(scenarios, seed, injections, jobs,
                  campaign_span, coverage) -> CampaignResult:
    FAULTS.disarm()
    # Cold start: the crypto result memos are cleared before the golden
    # runs and before the runs fork, so a campaign's cost is its own.
    for memo in RESULT_MEMOS:
        memo.clear()
    if AUDIT.enabled:
        AUDIT.emit("faults.campaign", "campaign-start", seed=seed,
                   injections=injections,
                   scenarios=[s.name for s in scenarios])
    golden = {}
    with TELEMETRY.span("faults.campaign.golden",
                        scenarios=len(scenarios)):
        for scenario in scenarios:
            baseline = scenario.execute()
            if baseline.get("status") != "ok":
                raise RuntimeError(
                    f"golden run of scenario {scenario.name!r} failed: "
                    f"{baseline}")
            golden[scenario.name] = baseline
    result = CampaignResult(
        seed=seed,
        scenarios=[s.name for s in scenarios],
        hardened=[s.name for s in scenarios if s.hardened])
    with TELEMETRY.span("faults.campaign.plan", seed=seed,
                        injections=injections):
        plans = plan_injections(scenarios, seed, injections)
    jobs = resolve_jobs(jobs, work=len(plans),
                        min_work_per_job=MIN_RUNS_PER_JOB)
    if TELEMETRY.enabled:
        campaign_span.set_attr("jobs", jobs)
    chunks = max(jobs,
                 (len(plans) + MAX_RUNS_PER_CHUNK - 1)
                 // MAX_RUNS_PER_CHUNK) if plans else jobs
    outputs = run_sharded(_execute_plan_range,
                          (plans, golden, coverage is not None),
                          chunk_bounds(len(plans), chunks), jobs=jobs)
    result.runs = [record for records, _ in outputs
                   for record in records]
    if coverage is not None:
        for _, cover_dict in outputs:
            coverage.merge(cover_dict)
    if AUDIT.enabled:
        # Gate verdicts are parent-side events: the hardening-gate
        # tripwire detector turns every violation into a detection,
        # which is what pins the bench's 100%-coverage criterion.
        for run in result.hardened_violations():
            AUDIT.emit("faults.campaign", "hardening-violation",
                       severity="critical", index=run.index,
                       scenario=run.scenario, site=run.site,
                       model=run.model, outcome=run.outcome)
        AUDIT.emit("faults.campaign", "campaign-end", seed=seed,
                   injections=result.injections,
                   totals=result.outcome_totals(),
                   violations=len(result.hardened_violations()))
    return result


def standard_campaign(seed: int = 2026, injections: int = 200,
                      jobs: int = None,
                      coverage: CoverageMap = None) -> CampaignResult:
    """Run the standard scenario suite (boot/attest, delivery, RTOS
    protected + flat baseline, SoC fabric) under a seeded fault grid."""
    # Imported lazily: scenarios pull in repro.tee/rtos/soc, which
    # themselves import repro.faults for their hook sites.
    from .scenarios import standard_scenarios
    return run_campaign(standard_scenarios(), seed=seed,
                        injections=injections, jobs=jobs,
                        coverage=coverage)
