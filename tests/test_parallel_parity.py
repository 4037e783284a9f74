"""Serial/parallel equivalence suite (ISSUE 4 determinism contract).

``jobs=1`` and ``jobs=N`` must be the same function: identical DSE
optima for every library algorithm, byte-identical campaign JSON, and
identical merged observability totals.  The ``jobs`` arms of
:func:`parity.assert_parity` force the parallel path with ``jobs=2``
and ``jobs=4``, so they exercise real worker pools even on small spaces
and single-CPU machines.
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
from repro.obs import TELEMETRY
from repro.runtime import fork_available

from parity import assert_parity

ALGORITHMS = {name: factory for name, factory, _ in TABLE_I_ROWS}


def _outcomes(results: dict) -> bytes:
    """Every goal's optimum and counts, without the ``jobs`` field."""
    return repr([(goal.name, result.best, result.feasible, result.explored,
                  result.evaluations)
                 for goal, result in results.items()]).encode()


class TestExhaustiveParity:
    """Sharded traversal == serial traversal, for every Table I space."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_to_serial(self, name, workers):
        def run(jobs):
            result = ExhaustiveExplorer(ALGORITHMS[name]()).run(
                OptimizationGoal.AREA_LATENCY, jobs=jobs)
            assert result.jobs == jobs
            return _outcomes({result.goal: result})

        assert_parity(run, variants=("jobs",), workers=workers)


class TestRunAllGoalsParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(self, workers):
        def run(jobs):
            results = ExhaustiveExplorer(
                adder_mod_q(), DesignContext(masking_order=1)
            ).run_all_goals(jobs=jobs)
            assert set(results) == set(OptimizationGoal)
            return _outcomes(results)

        assert_parity(run, variants=("jobs", "traced"), workers=workers)

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
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_to_serial(self, factory, context, seed, workers):
        def run(jobs):
            result = LocalSearchExplorer(factory(), context, seed=seed).run(
                OptimizationGoal.AREA_LATENCY, starts=8, jobs=jobs)
            return _outcomes({result.goal: result})

        assert_parity(run, variants=("jobs",), workers=workers)


class TestCampaignParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_collapsed_profile_identical(self, workers):
        """Canonical JSON, PERF totals, collapsed stacks and span attrs
        of a sharded campaign are the serial ones: worker spans bring
        their events and attrs home, so every event lands on the same
        call path and every run span reads as in a serial run."""
        spans = []             # traced arms: (run attrs, outcome totals)

        def run(jobs):
            result = standard_campaign(seed=11, injections=48, jobs=jobs)
            records = TELEMETRY.tracer.snapshot()
            if records:
                (campaign,) = [r["attrs"] for r in records
                               if r["name"] == "faults.campaign"]
                spans.append((
                    [(r["attrs"]["scenario"], r["attrs"]["outcome"],
                      r["attrs"]["fired"]) for r in records
                     if r["name"] == "faults.campaign.run"],
                    {key: value for key, value in campaign.items()
                     if key.startswith("outcome.")}))
            return result.canonical_json().encode()

        arms = assert_parity(run, variants=("jobs", "traced"),
                             workers=workers)
        (runs, totals), *sharded = spans
        assert sharded == ([(runs, totals)] if fork_available() else [])
        assert len(runs) == sum(totals.values()) == 48
        assert any(fired for _, _, fired in runs)
        stacks = arms["traced"]["collapsed"]
        assert stacks.count("\n") > 20
        assert "faults.campaign.run" in stacks


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
