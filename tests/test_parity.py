"""The parity harness is not vacuous: a workload that depends on how the
process runs it fails the arm that varies that state."""

import os

import pytest

from repro.faults import campaign as campaign_module
from repro.obs import PERF
from repro.runtime import Memo, run_sharded

from parity import assert_parity
from test_fault_campaign import _campaign


def test_process_id_in_output_fails_jobs():
    def run(jobs):
        return repr(run_sharded(lambda state, shard: os.getpid(), None,
                                [0, 1], jobs=jobs)).encode()

    with pytest.raises(AssertionError, match="jobs arm: output"):
        assert_parity(run, variants=("jobs",))


def test_hit_without_perf_replay_fails_warm(monkeypatch):
    def get_or_build(memo, key, build):
        found, entry = memo.lookup(key)
        if found:
            return entry[0]
        before = PERF.snapshot()
        value = build()
        memo.store(key, (value, PERF.delta_since(before)))
        return value

    monkeypatch.setattr(Memo, "get_or_build", get_or_build)
    with pytest.raises(AssertionError, match="warm arm: perf"):
        assert_parity(_campaign, variants=("warm",))


def test_reversed_shard_results_fail_jobs(monkeypatch):
    """A campaign concatenates its shards' run records in shard order
    (without fork, the harness skips: ``jobs`` is the only arm).  An
    exhaustive fold cannot fail here: it takes the minimum of rank keys
    that end in the design's rank, and sums the feasible counts."""
    monkeypatch.setattr(campaign_module, "run_sharded",
                        lambda *a, **k: run_sharded(*a, **k)[::-1])
    with pytest.raises(AssertionError, match="jobs arm: output"):
        assert_parity(_campaign, variants=("jobs",))

