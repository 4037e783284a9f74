"""Campaign-scale streaming acceptance tests (ISSUE 6 tentpole).

The claims these tests pin, at 10^4 injections on a purpose-built
cheap scenario:

* the streaming sink keeps the tracer's finished-span buffer bounded
  (high-water <= one merge batch) while seeing every span — no
  dump-at-exit accumulation;
* the campaign coverage map's canonical JSON is **byte-identical**
  between a serial run and a ``jobs=2`` chunked run, as is the
  campaign JSON itself;
* the *sampled span-name sequence* written by the head+stride sampler
  is identical for any worker count (shard-order merge makes the
  merged stream order equal the serial order — see DESIGN.md).
"""

import json

import pytest

from repro.faults.campaign import FaultPoint, Scenario, run_campaign
from repro.faults.models import BIT_FLIP
from repro.faults.injector import FAULTS
from repro.obs import (CoverageMap, HeadStrideSampler, PERF,
                       SpanStream, TELEMETRY)

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


def _streamed_campaign(directory, jobs):
    coverage = CoverageMap("tiny_campaign")
    stream = SpanStream(directory,
                        sampler=HeadStrideSampler(head=16, stride=64),
                        batch=512)
    stream.install()
    try:
        result = run_campaign([TinyScenario()], seed=SEED,
                              injections=INJECTIONS, jobs=jobs,
                              coverage=coverage)
    finally:
        stream.close()
    return result, coverage, stream


def _sampled_names(directory) -> list:
    """Span names in the streamed order, across rotated files."""
    names = []
    rotated = sorted(directory.glob("spans.jsonl.*"),
                     key=lambda p: -int(p.suffix[1:]))
    for path in rotated + [directory / "spans.jsonl"]:
        for line in path.read_text().splitlines():
            names.append(json.loads(line)["name"])
    return names


def test_scale_campaign_streams_in_bounded_memory(tmp_path,
                                                  global_telemetry):
    result, coverage, stream = _streamed_campaign(tmp_path, jobs=1)
    assert result.injections == INJECTIONS
    # every span reached the stream, none linger in the tracer
    assert stream.spans_seen > INJECTIONS
    assert TELEMETRY.tracer.finished_count() == 0
    # bounded: the drain batches never exceeded the pump threshold
    assert stream.high_water <= 512
    # sampling thinned the stream by more than an order of magnitude
    assert 0 < stream.spans_sampled < stream.spans_seen // 10
    # coverage found real behavioural diversity (32 bits x 4 triggers
    # collapse into log buckets, plus the untriggered baseline)
    assert coverage.observations == INJECTIONS
    assert 1 < coverage.distinct("tiny") < INJECTIONS // 10
    # live snapshots were flushed alongside the stream
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "perf_counters.json").exists()


def test_scale_campaign_parallel_byte_parity(tmp_path,
                                             global_telemetry):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial, serial_cover, _ = _streamed_campaign(serial_dir, jobs=1)
    reset_telemetry()
    parallel, parallel_cover, parallel_stream = \
        _streamed_campaign(parallel_dir, jobs=2)

    # campaign JSON and coverage JSON: byte-identical across workers
    assert parallel.canonical_json() == serial.canonical_json()
    assert parallel_cover.to_json() == serial_cover.to_json()

    # the deterministic sampler admitted the same span-name sequence:
    # chunks merge in shard order, so the merged stream order (and
    # with it every head+stride decision) equals the serial order
    assert _sampled_names(parallel_dir) == _sampled_names(serial_dir)

    # the parallel run stayed bounded too: chunking capped each
    # capture payload at MAX_RUNS_PER_CHUNK runs' worth of spans
    assert parallel_stream.high_water <= 1200
