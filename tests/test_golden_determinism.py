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
from repro.obs import PERF, counting
from repro.runtime import run_sharded

from helpers import traced
from parity import assert_parity


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
    """Repeated executes produce the same bytes and PERF totals, cold,
    warm and traced."""
    def run(jobs):
        first, *rest = [scenarios[name].execute() for _ in range(4)]
        assert rest == [first] * 3 and first["status"] == "ok", first
        return repr(first).encode()

    assert_parity(run, variants=("cold", "warm", "traced"))


@pytest.mark.parametrize("name", _names())
def test_execute_identical_in_forked_worker(scenarios, name):
    """A scenario shipped to a forked pool worker produces the very
    bytes and PERF totals the parent process produces — the property
    the campaign's serial-vs-parallel JSON parity rests on."""
    def run(jobs):
        first, second = run_sharded(lambda state, _: state.execute(),
                                    scenarios[name], [0, 1], jobs=jobs)
        assert first == second, first
        return repr(first).encode()

    assert_parity(run, variants=("jobs",))


@pytest.mark.parametrize("name", _names())
def test_execute_unaffected_by_observability(scenarios, name, monkeypatch):
    """Telemetry and PERF counters observe; they must never perturb
    the golden digest."""
    scenario = scenarios[name]
    monkeypatch.setattr(PERF, "enabled", False)
    with traced(False):
        dark = scenario.execute()
    with traced(), counting():
        assert scenario.execute() == dark


def test_fresh_scenario_instances_agree(scenarios):
    """Scenario state (sessions, caches) never leaks into the golden
    digest: a brand-new instance reproduces the module fixture's."""
    for scenario in standard_scenarios():
        assert scenario.execute() == \
            scenarios[scenario.name].execute()
