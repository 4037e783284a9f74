"""Golden-run determinism across the standard scenarios (ISSUE 7).

The adversary campaign's whole oracle strategy — classify by
comparing a run's digest against the family's golden expectation —
only works if a scenario's un-faulted ``execute()`` is a pure
function: byte-identical across repeated runs in one process, across
worker processes, and regardless of observability switches.  These
tests pin exactly that, for every standard scenario.
"""

import pytest

from repro.faults import FAULTS
from repro.faults.scenarios import standard_scenarios
from repro.obs import PERF, TELEMETRY
from repro.runtime import run_sharded


@pytest.fixture(autouse=True)
def _disarmed():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def scenarios():
    return {scenario.name: scenario
            for scenario in standard_scenarios()}


def _names():
    return [scenario.name for scenario in standard_scenarios()]


@pytest.mark.parametrize("name", _names())
def test_repeated_execute_byte_identical(scenarios, name):
    scenario = scenarios[name]
    first = scenario.execute()
    assert first["status"] == "ok", first
    for _ in range(3):
        assert scenario.execute() == first


@pytest.mark.parametrize("name", _names())
def test_execute_identical_in_forked_worker(scenarios, name):
    """A scenario shipped to a forked pool worker produces the very
    bytes the parent process produces — the property the campaign's
    serial-vs-parallel JSON parity rests on."""
    scenario = scenarios[name]
    local = scenario.execute()
    remote = run_sharded(lambda state, _: state.execute(), scenario,
                         [0, 1], jobs=2)
    assert remote == [local, local]


@pytest.mark.parametrize("name", _names())
def test_execute_unaffected_by_observability(scenarios, name):
    """Telemetry and PERF counters observe; they must never perturb
    the golden digest."""
    scenario = scenarios[name]
    telemetry_was, perf_was = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = False
    PERF.enabled = False
    try:
        dark = scenario.execute()
        TELEMETRY.enabled = True
        PERF.enabled = True
        lit = scenario.execute()
    finally:
        TELEMETRY.enabled = telemetry_was
        PERF.enabled = perf_was
    assert lit == dark


def test_fresh_scenario_instances_agree(scenarios):
    """Scenario state (sessions, caches) never leaks into the golden
    digest: a brand-new instance reproduces the module fixture's."""
    for scenario in standard_scenarios():
        assert scenario.execute() == \
            scenarios[scenario.name].execute()
