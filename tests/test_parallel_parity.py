"""Serial/parallel equivalence suite (ISSUE 4 determinism contract).

``jobs=1`` and ``jobs=N`` must be the same function: identical DSE
optima for every library algorithm, byte-identical
campaign JSON, and identical merged observability totals.  These tests
force the parallel path with explicit ``jobs=`` so they exercise real
worker pools even on small spaces and single-CPU machines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import standard_campaign
from repro.hades.explorer import (ExhaustiveExplorer,
                                  LocalSearchExplorer, pareto_front)
from repro.hades.library import TABLE_I_ROWS, aes256, adder_mod_q, keccak
from repro.hades.metrics import Metrics, OptimizationGoal
from repro.hades.template import DesignContext
from repro.obs import TELEMETRY, collapsed
from repro.obs.perf import PERF
from repro.runtime import fork_available

from helpers import reset_telemetry

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="parallel path needs fork")

ALGORITHMS = {name: factory for name, factory, _ in TABLE_I_ROWS}


@pytest.fixture
def enabled_obs():
    was_perf, was_tel = PERF.enabled, TELEMETRY.enabled
    PERF.enabled = True
    PERF.reset()
    TELEMETRY.enabled = True
    reset_telemetry()
    yield
    PERF.reset()
    reset_telemetry()
    PERF.enabled, TELEMETRY.enabled = was_perf, was_tel


class TestExhaustiveParity:
    """Sharded traversal == serial traversal, for every Table I space."""

    _cache = {}

    @classmethod
    def _run(cls, name, jobs):
        key = (name, jobs)
        if key not in cls._cache:
            explorer = ExhaustiveExplorer(ALGORITHMS[name]())
            cls._cache[key] = explorer.run(
                OptimizationGoal.AREA_LATENCY, jobs=jobs)
        return cls._cache[key]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_identical_to_serial(self, name, jobs):
        serial = self._run(name, 1)
        parallel = self._run(name, jobs)
        assert parallel.best.configuration == serial.best.configuration
        assert parallel.best.metrics == serial.best.metrics
        assert parallel.feasible == serial.feasible
        assert parallel.explored == serial.explored
        assert parallel.jobs == jobs


class TestRunAllGoalsParity:
    def test_parallel_matches_serial(self):
        explorer = ExhaustiveExplorer(adder_mod_q(),
                                      DesignContext(masking_order=1))
        serial = explorer.run_all_goals(jobs=1)
        parallel = explorer.run_all_goals(jobs=4)
        assert set(serial) == set(parallel) == set(OptimizationGoal)
        for goal in serial:
            assert serial[goal].best.configuration == \
                parallel[goal].best.configuration

    def test_single_traversal_cost(self):
        """All goals score in ONE pass: ``run_all_goals()`` makes
        exactly as many top-level cost calls (one per chunk) as one
        ``run(goal)`` on the same template, not goals times as many."""
        template = adder_mod_q()
        cost, calls = template.cost, []

        def counted(params, subs, context):
            calls.append(params)
            return cost(params, subs, context)

        template.cost = counted
        explorer = ExhaustiveExplorer(template,
                                      DesignContext(masking_order=1))
        explorer.run(OptimizationGoal.AREA, jobs=1)
        one_goal = len(calls)
        calls.clear()
        results = explorer.run_all_goals(jobs=1)
        assert len(results) == len(OptimizationGoal) > 1
        assert len(calls) == one_goal > 0

    def test_goal_results_match_individual_runs(self):
        explorer = ExhaustiveExplorer(keccak())
        combined = explorer.run_all_goals()
        for goal, result in combined.items():
            alone = explorer.run(goal)
            assert result.best.configuration == alone.best.configuration


class TestLocalSearchParity:
    @pytest.mark.parametrize("factory,context,seed", [
        (keccak, DesignContext(masking_order=1), 7),
        (aes256, DesignContext(), 3),
    ])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_identical_to_serial(self, factory, context, seed, jobs):
        def run(n):
            return LocalSearchExplorer(factory(), context, seed=seed) \
                .run(OptimizationGoal.AREA_LATENCY, starts=8, jobs=n)

        serial, parallel = run(1), run(jobs)
        assert parallel.best.configuration == serial.best.configuration
        assert parallel.best.metrics == serial.best.metrics
        assert parallel.evaluations == serial.evaluations
        assert parallel.feasible == serial.feasible


class TestCampaignParity:
    def test_canonical_json_byte_identical(self):
        serial = standard_campaign(seed=11, injections=60, jobs=1)
        for jobs in (2, 4):
            parallel = standard_campaign(seed=11, injections=60,
                                         jobs=jobs)
            assert parallel.canonical_json() == serial.canonical_json()

    def test_observability_totals_identical(self, enabled_obs):
        def run(jobs):
            PERF.reset()
            reset_telemetry()
            result = standard_campaign(seed=11, injections=48,
                                       jobs=jobs)
            perf = dict(PERF.snapshot())
            perf.pop("runtime.pools", None)
            perf.pop("runtime.shards", None)
            records = TELEMETRY.tracer.snapshot()
            runs = [(r["attrs"]["scenario"], r["attrs"]["outcome"],
                     r["attrs"]["fired"]) for r in records
                    if r["name"] == "faults.campaign.run"]
            (campaign,) = [r["attrs"] for r in records
                           if r["name"] == "faults.campaign"]
            totals = {key: value for key, value in campaign.items()
                      if key.startswith("outcome.")}
            return result.canonical_json(), perf, runs, totals

        serial = run(1)
        _, _, runs, totals = serial
        assert len(runs) == sum(totals.values()) == 48
        assert any(fired for _, _, fired in runs)
        assert run(4) == serial

    def test_collapsed_profile_identical(self, enabled_obs):
        """Worker spans bring their events home, so every event lands
        on the same call path as in a serial run.  Only the fan-out
        span's pool bookkeeping exists on the parallel path alone."""
        def run(jobs):
            PERF.reset()
            reset_telemetry()
            standard_campaign(seed=11, injections=24, jobs=jobs)
            return collapsed([
                {**record, "events": {
                    event: count
                    for event, count in record["events"].items()
                    if event not in ("runtime.pools", "runtime.shards")}}
                for record in TELEMETRY.tracer.snapshot()])

        serial = run(1)
        assert serial.count("\n") > 20
        assert run(2) == serial


def _reference_pareto(designs):
    """The historical O(n^2) implementation, the semantic reference
    the staircase sweep must match bit for bit."""
    def key(design):
        metrics = design.metrics
        return (metrics.area_kge, metrics.latency_cc,
                metrics.randomness_bits)

    candidates = sorted(designs, key=key)
    front = []
    for design in candidates:
        dominated = False
        design_key = key(design)
        for kept in front:
            kept_key = key(kept)
            if all(a <= b for a, b in zip(kept_key, design_key)) and \
                    any(a < b for a, b in zip(kept_key, design_key)):
                dominated = True
                break
        if not dominated:
            front = [kept for kept in front
                     if not (all(a <= b for a, b in
                                 zip(design_key, key(kept)))
                             and any(a < b for a, b in
                                     zip(design_key, key(kept))))]
            front.append(design)
    return front


class _Point:
    """Minimal design stand-in for property testing pareto_front."""

    __slots__ = ("metrics",)

    def __init__(self, metrics):
        self.metrics = metrics


# Small integer grids force heavy ties — the regime where a sweep
# rewrite is most likely to diverge from the quadratic reference.
_metric = st.builds(
    Metrics,
    area_kge=st.integers(0, 5).map(float),
    latency_cc=st.integers(0, 5).map(float),
    randomness_bits=st.integers(0, 3).map(float))


class TestParetoSweepMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_metric, max_size=40))
    def test_equivalent_to_quadratic_reference(self, metrics):
        points = [_Point(m) for m in metrics]
        new = pareto_front(points)
        old = _reference_pareto(points)
        assert [p.metrics for p in new] == [p.metrics for p in old]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_metric, max_size=30))
    def test_duplicates_all_kept(self, metrics):
        points = [_Point(m) for m in metrics for _ in range(2)]
        new = pareto_front(points)
        old = _reference_pareto(points)
        assert [p.metrics for p in new] == [p.metrics for p in old]
