"""Tests for the SDF dataflow model and its worst-case analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compsoc import (ComposablePlatform, SdfGraph,
                           iteration_period_bound,
                           measure_iteration_periods, periodic_workload,
                           static_order_schedule, to_application)


def _pipeline(wcets=(2, 5, 1), accesses=(1, 2, 1)):
    graph = SdfGraph("pipeline")
    names = []
    for index, (wcet, access) in enumerate(zip(wcets, accesses)):
        names.append(f"a{index}")
        graph.add_actor(f"a{index}", wcet=wcet, memory_accesses=access)
    for a, b in zip(names, names[1:]):
        graph.connect(a, b)
    return graph


class TestGraphStructure:
    def test_duplicate_actor_rejected(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        with pytest.raises(ValueError):
            graph.add_actor("a", 2)

    def test_unknown_endpoint_rejected(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        with pytest.raises(ValueError):
            graph.connect("a", "ghost")

    def test_invalid_rates_rejected(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        with pytest.raises(ValueError):
            graph.connect("a", "b", production=0)

    def test_negative_wcet_rejected(self):
        with pytest.raises(ValueError):
            SdfGraph().add_actor("a", -1)


class TestRepetitionVector:
    def test_homogeneous_pipeline(self):
        assert _pipeline().repetition_vector() == \
            {"a0": 1, "a1": 1, "a2": 1}

    def test_multirate(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b", production=2, consumption=3)
        assert graph.repetition_vector() == {"a": 3, "b": 2}

    def test_inconsistent_rates_detected(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b", production=2, consumption=1)
        graph.connect("a", "b", production=1, consumption=1)
        with pytest.raises(ValueError):
            graph.repetition_vector()

    def test_cycle_with_tokens_consistent(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b")
        graph.connect("b", "a", initial_tokens=1)
        assert graph.repetition_vector() == {"a": 1, "b": 1}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_two_actor_balance_property(self, production, consumption):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b", production=production,
                      consumption=consumption)
        q = graph.repetition_vector()
        assert q["a"] * production == q["b"] * consumption
        # Smallest solution: gcd of the vector is 1.
        from math import gcd
        assert gcd(q["a"], q["b"]) == 1


class TestScheduling:
    def test_pipeline_schedule_order(self):
        assert static_order_schedule(_pipeline()) == ["a0", "a1", "a2"]

    def test_multirate_schedule_counts(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b", production=2, consumption=3)
        schedule = static_order_schedule(graph)
        assert schedule.count("a") == 3
        assert schedule.count("b") == 2

    def test_schedule_respects_dependencies(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b", production=1, consumption=2)
        schedule = static_order_schedule(graph)
        # b needs two tokens: both a-firings come first.
        assert schedule == ["a", "a", "b"]

    def test_deadlock_detected(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b")
        graph.connect("b", "a")      # no initial tokens: deadlock
        with pytest.raises(ValueError):
            static_order_schedule(graph)

    def test_cycle_with_tokens_schedules(self):
        graph = SdfGraph()
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.connect("a", "b")
        graph.connect("b", "a", initial_tokens=1)
        assert static_order_schedule(graph) == ["a", "b"]


class TestWorstCaseAnalysis:
    def test_bound_formula(self):
        platform = ComposablePlatform("tdm")
        platform.create_vep("v0")
        graph = _pipeline(wcets=(2, 5, 1), accesses=(1, 2, 1))
        # service bound = 2 slots + 2 latency = 4; total wcet 8 + 4*4.
        assert iteration_period_bound(graph, platform) == 8 + 4 * 4

    def test_observed_periods_within_bound_solo(self):
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        graph = _pipeline()
        bound = iteration_period_bound(graph, platform)
        periods = measure_iteration_periods(graph, platform, vep,
                                            iterations=5)
        assert len(periods) == 5
        assert all(p <= bound for p in periods)

    def test_observed_periods_within_bound_under_load(self):
        """The composability payoff: the VEP-local bound survives any
        co-runner load."""
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        hog_vep = platform.create_vep("v1")
        hog_vep.attach(periodic_workload("hog", 0, 400,
                                         hog_vep.memory.base))
        graph = _pipeline()
        bound = iteration_period_bound(graph, platform)
        periods = measure_iteration_periods(graph, platform, vep,
                                            iterations=5)
        assert all(p <= bound for p in periods)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 3)),
                    min_size=1, max_size=4))
    def test_bound_property_random_pipelines(self, stages):
        """Any pipeline's observed period respects its analysis bound
        regardless of a saturating co-runner."""
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        hog_vep = platform.create_vep("v1")
        hog_vep.attach(periodic_workload("hog", 0, 200,
                                         hog_vep.memory.base))
        graph = _pipeline(wcets=[s[0] for s in stages],
                          accesses=[s[1] for s in stages])
        bound = iteration_period_bound(graph, platform)
        periods = measure_iteration_periods(graph, platform, vep,
                                            iterations=3)
        assert all(p <= bound for p in periods)

    def test_no_memory_graph_rejected_for_measurement(self):
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        graph = SdfGraph()
        graph.add_actor("pure", wcet=3)
        with pytest.raises(ValueError):
            measure_iteration_periods(graph, platform, vep)

    def test_to_application_shape(self):
        graph = _pipeline()
        application = to_application(graph, 0x1000_0000, iterations=2)
        mems = [p for p in application.phases if p[0] == "mem"]
        assert len(mems) == 2 * 4      # 4 accesses per iteration
        addresses = [p[1] for p in mems]
        assert len(set(addresses)) == len(addresses)
