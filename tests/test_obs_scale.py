"""Campaign-scale chunked-parity acceptance test.

At 10^4 injections on a purpose-built cheap scenario, a ``jobs=2``
campaign splits each shard into chunks of at most
``MAX_RUNS_PER_CHUNK`` runs, and the parent merges every chunk's
telemetry capture in shard order.  The claims pinned here: the
campaign JSON, the campaign coverage map's canonical JSON and the
tracer's span-name sequence are **byte-identical** between a serial
run and the chunked ``jobs=2`` run (see DESIGN.md).
"""

import pytest

from repro.faults.campaign import FaultPoint, Scenario, run_campaign
from repro.faults.models import BIT_FLIP
from repro.faults.injector import FAULTS
from repro.obs import CoverageMap, PERF, TELEMETRY

from helpers import reset_telemetry

SEED = 99
INJECTIONS = 10_000


class TinyScenario(Scenario):
    """A microscopic workload built for volume: one corruptible word,
    four rounds, a popcount-dependent perf event so different injected
    bits land in different coverage buckets."""

    name = "tiny"
    hardened = False               # silent corruption is expected here

    def fault_points(self) -> tuple:
        return (FaultPoint(site="tiny.word", model=BIT_FLIP,
                           triggers=4, bits=32),)

    def execute(self) -> dict:
        state = b"\x5a\xa5\x0f\xf0"
        weight = 0
        for _ in range(4):
            state = FAULTS.corrupt("tiny.word", state)
            weight += sum(bin(byte).count("1") for byte in state)
        if PERF.enabled:
            PERF.inc("tiny.popcount", weight)
            PERF.inc("tiny.rounds", 4)
        return {"status": "ok", "reason": "",
                "digest": f"{state.hex()}-{weight:03d}"}


@pytest.fixture
def global_telemetry():
    """Enable the global facade for the duration of one test; restore
    and clear afterwards so other tests see pristine state."""
    was_enabled = TELEMETRY.enabled
    TELEMETRY.enabled = True
    reset_telemetry()
    yield TELEMETRY
    reset_telemetry()
    TELEMETRY.enabled = was_enabled


def _campaign(jobs):
    """``(campaign result, coverage map, span names in tracer order)``
    of one traced run from a cleared tracer."""
    reset_telemetry()
    coverage = CoverageMap("tiny_campaign")
    result = run_campaign([TinyScenario()], seed=SEED,
                          injections=INJECTIONS, jobs=jobs,
                          coverage=coverage)
    names = [record["name"] for record in TELEMETRY.tracer.snapshot()]
    return result, coverage, names


def test_scale_campaign_parallel_byte_parity(global_telemetry):
    serial, serial_cover, serial_names = _campaign(jobs=1)
    parallel, parallel_cover, parallel_names = _campaign(jobs=2)

    assert serial.injections == INJECTIONS
    # coverage found real behavioural diversity (32 bits x 4 triggers
    # collapse into log buckets, plus the untriggered baseline)
    assert serial_cover.observations == INJECTIONS
    assert 1 < serial_cover.to_dict()["groups"]["tiny"]["distinct"] \
        < INJECTIONS // 10

    assert len(serial_names) > INJECTIONS

    # campaign JSON and coverage JSON: byte-identical across workers
    assert parallel.canonical_json() == serial.canonical_json()
    assert parallel_cover.to_json() == serial_cover.to_json()

    # chunks merge in shard order, so the parent's tracer holds the
    # same span-name sequence as the serial run
    assert parallel_names == serial_names
