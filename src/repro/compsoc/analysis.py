"""Composability verification and overhead analysis.

Two claims from Section III-E are made measurable here:

* *Composability* — "applications can be verified independently, as
  opposed to being verified together": an application's cycle-accurate
  timeline must be identical no matter which co-runners share the
  platform.  :func:`verify_composability` checks exactly that.
* *Overhead* — "a drawback of composable execution [is] the additional
  processing overhead": TDM never donates idle slots, so makespan and
  utilisation lag the work-conserving baselines.
  :func:`measure_overhead` quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .platform import ComposablePlatform


@dataclass
class ComposabilityReport:
    """Outcome of a composability experiment for one application."""

    application: str
    policy: str
    composable: bool
    baseline_completions: list
    divergent_runs: list = field(default_factory=list)


def _run_with_corunners(policy: str, app_factory, corunner_factories,
                        vep_count: int):
    """Run on a platform whose *hardware shape* (VEP count, slot table)
    is fixed; only the applications attached to the co-runner VEPs
    vary.  This mirrors reality: the TDM table is provisioned at
    platform configuration time, not per workload."""
    platform = ComposablePlatform(policy)
    vep = platform.create_vep("vep0")
    application = app_factory()
    vep.attach(application)
    others = [platform.create_vep(f"vep{i + 1}")
              for i in range(vep_count - 1)]
    for other, factory in zip(others, corunner_factories):
        other.attach(factory())
    timelines = platform.run()
    return timelines[application.name]


def verify_composability(policy: str, app_factory,
                         corunner_sets: list) -> ComposabilityReport:
    """Run ``app_factory()`` against each set of co-runners and compare
    its observable timing against the solo run.

    ``corunner_sets`` is a list of lists of application factories; the
    solo run (empty set) is always included as the baseline.  The
    platform shape is held fixed across all runs (enough VEPs for the
    largest co-runner set).
    """
    vep_count = 1 + max((len(s) for s in corunner_sets), default=0)
    baseline = _run_with_corunners(policy, app_factory, [],
                                   vep_count=vep_count)
    divergent = []
    for index, corunners in enumerate(corunner_sets):
        timeline = _run_with_corunners(policy, app_factory, corunners,
                                       vep_count=vep_count)
        if timeline.completion_cycles != baseline.completion_cycles or \
                timeline.finished_cycle != baseline.finished_cycle:
            divergent.append(index)
    return ComposabilityReport(
        application=baseline.name, policy=policy,
        composable=not divergent,
        baseline_completions=list(baseline.completion_cycles),
        divergent_runs=divergent)


def worst_case_service_bound(platform: ComposablePlatform) -> int:
    """Analytical worst-case request service time under TDM.

    CompSOC's predictability guarantee: a request issued at any cycle
    waits at most one full table revolution for the start of its VEP's
    slot run, then is served within it — so the bound is
    ``table_length + memory_latency`` cycles, **independent of every
    other application** (which is what makes per-application worst-case
    verification sound).
    """
    if platform.policy != "tdm":
        raise ValueError("the analytical bound holds only for TDM")
    table_length = sum(vep.slot_count for vep in platform.veps)
    return table_length + platform.memory_latency


@dataclass
class OverheadReport:
    """Makespan comparison between arbitration policies."""

    makespans: dict                   # policy -> last finish cycle
    tdm_overhead_vs_best: float       # relative slowdown of TDM


def measure_overhead(app_factories: list) -> OverheadReport:
    """Makespan of the same multi-application workload under TDM,
    round-robin and FCFS arbitration."""
    makespans = {}
    for policy in ("tdm", "round_robin", "fcfs"):
        platform = ComposablePlatform(policy)
        names = []
        for index, factory in enumerate(app_factories):
            vep = platform.create_vep(f"vep{index}")
            application = factory()
            names.append(application.name)
            vep.attach(application)
        timelines = platform.run()
        makespans[policy] = max(t.finished_cycle
                                for t in timelines.values())
    best = min(value for key, value in makespans.items()
               if key != "tdm")
    return OverheadReport(makespans=makespans,
                          tdm_overhead_vs_best=(makespans["tdm"] - best)
                          / best)
