"""Tests for the CompSOC worst-case service bound — the predictability
half of "composable and predictable execution"."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compsoc import (ComposablePlatform, periodic_workload,
                           worst_case_service_bound)


def _service_times(timeline) -> list:
    """Per-request issue-to-completion latency in cycles."""
    return [done - issued for issued, done in
            zip(timeline.issue_cycles, timeline.completion_cycles)]


def _platform_with_load(vep_count, policy="tdm"):
    platform = ComposablePlatform(policy)
    veps = [platform.create_vep(f"v{i}") for i in range(vep_count)]
    apps = []
    for index, vep in enumerate(veps):
        app = periodic_workload(f"app{index}",
                                compute_ticks=index % 3,
                                requests=30,
                                base_address=vep.memory.base)
        vep.attach(app)
        apps.append(app)
    return platform, apps


class TestWorstCaseBound:
    def test_bound_formula(self):
        platform, _ = _platform_with_load(3)
        # 3 VEPs x memory_latency(2) slots + service 2.
        assert worst_case_service_bound(platform) == 8

    def test_bound_only_for_tdm(self):
        platform, _ = _platform_with_load(2, policy="fcfs")
        with pytest.raises(ValueError):
            worst_case_service_bound(platform)

    @pytest.mark.parametrize("vep_count", [1, 2, 4])
    def test_simulated_service_never_exceeds_bound(self, vep_count):
        platform, apps = _platform_with_load(vep_count)
        bound = worst_case_service_bound(platform)
        timelines = platform.run()
        for app in apps:
            times = _service_times(timelines[app.name])
            assert times, "no requests served"
            assert max(times) <= bound

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4), st.integers(1, 20))
    def test_bound_property_under_random_workloads(self, vep_count,
                                                   compute, requests):
        """The analytical bound holds for arbitrary workload shapes."""
        platform = ComposablePlatform("tdm")
        veps = [platform.create_vep(f"v{i}") for i in range(vep_count)]
        apps = []
        for index, vep in enumerate(veps):
            app = periodic_workload(
                f"a{index}", compute_ticks=(compute + index) % 5,
                requests=requests, base_address=vep.memory.base)
            vep.attach(app)
            apps.append(app)
        bound = worst_case_service_bound(platform)
        timelines = platform.run()
        for app in apps:
            for service in _service_times(timelines[app.name]):
                assert service <= bound

    def test_work_conserving_can_exceed_tdm_bound(self):
        """Under FCFS a burst can push another app's request past what
        the TDM platform would ever allow — why the bound needs TDM."""
        tdm_platform, _ = _platform_with_load(2)
        bound = worst_case_service_bound(tdm_platform)
        platform = ComposablePlatform("fcfs")
        v0 = platform.create_vep("v0")
        v1 = platform.create_vep("v1")
        victim = periodic_workload("victim", compute_ticks=5,
                                   requests=5,
                                   base_address=v0.memory.base)
        v0.attach(victim)
        # Many zero-compute hogs in the other VEP flood the queue.
        for index in range(6):
            hog = periodic_workload(f"hog{index}", compute_ticks=0,
                                    requests=100,
                                    base_address=v1.memory.base)
            v1.attach(hog)
        timelines = platform.run()
        assert max(_service_times(timelines["victim"])) > bound
