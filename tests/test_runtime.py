"""Unit tests for the deterministic parallel execution layer."""

import pytest

from repro.faults import FaultSpec
from repro.faults.models import BIT_FLIP
from repro.obs import TELEMETRY
from repro.obs.perf import PERF, counting
from repro.runtime import (Memo, available_cpus, chunk_bounds,
                           fork_available, resolve_jobs,
                           run_sharded, stride_shards)
from repro.runtime import executor
from repro.runtime.capture import capture_begin, capture_end
from repro.runtime.memo import bypassed

from helpers import injected, traced
from parity import POOL_EVENTS, assert_parity


@pytest.fixture
def enabled_obs():
    """Both observability facades on, clean, restored afterwards."""
    with traced(), counting():
        PERF.reset()
        yield
        PERF.reset()


class TestChunkBounds:
    def test_covers_range_exactly(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_even_split(self):
        assert chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_more_parts_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]   # never an empty chunk

    def test_single_part(self):
        assert chunk_bounds(7, 1) == [(0, 7)]

    def test_empty(self):
        assert chunk_bounds(0, 4) == []

    @pytest.mark.parametrize("total,parts", [(1, 1), (13, 4), (100, 7),
                                             (5, 5), (6, 13)])
    def test_partition_property(self, total, parts):
        bounds = chunk_bounds(total, parts)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(total))
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size > 0 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_negative_total(self):
        assert chunk_bounds(-3, 2) == []


class TestStrideShards:
    def test_shapes(self):
        assert stride_shards(3) == [(0, 3), (1, 3), (2, 3)]
        assert stride_shards(1) == [(0, 1)]

    def test_partition_property(self):
        shards = stride_shards(4)
        covered = sorted(i for offset, step in shards
                         for i in range(offset, 23, step))
        assert covered == list(range(23))

    def test_degenerate(self):
        assert stride_shards(0) == [(0, 1)]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(jobs=3) == 3

    def test_explicit_wins_over_small_work(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(jobs=4, work=2, min_work_per_job=100) == 4

    def test_env_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == available_cpus()

    def test_env_invalid_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_env_scaled_down_by_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(work=30, min_work_per_job=10) == 3
        assert resolve_jobs(work=5, min_work_per_job=10) == 1
        assert resolve_jobs(work=1000, min_work_per_job=10) == 8

    def test_inside_worker_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.setattr(executor, "_IN_WORKER", True)
        assert resolve_jobs() == 1
        assert resolve_jobs(jobs=4) == 1

    def test_no_fork_is_serial(self, monkeypatch):
        monkeypatch.setattr(executor, "fork_available", lambda: False)
        assert resolve_jobs(jobs=4) == 1


def _square(state, x):
    return x * x


class TestParallelMap:
    """:func:`run_sharded` as an order-preserving parallel map."""

    def test_serial_matches_comprehension(self):
        items = list(range(17))
        assert run_sharded(_square, None, items) == [x * x for x in items]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = run_sharded(_square, None, items, jobs=1)
        assert run_sharded(_square, None, items, jobs=2) == serial
        assert run_sharded(_square, None, items, jobs=4) == serial

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_closures_cross_by_fork(self):
        offset = 1000   # captured, never pickled
        result = run_sharded(lambda state, x: x + offset, None, range(6),
                             jobs=2)
        assert result == [1000, 1001, 1002, 1003, 1004, 1005]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_exception_propagates(self):
        def boom(state, x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            run_sharded(boom, None, range(6), jobs=2)

    def test_empty_and_single(self):
        assert run_sharded(_square, None, [], jobs=4) == []
        assert run_sharded(_square, None, [5], jobs=4) == [25]


def _counting_worker(state, bounds):
    lo, hi = bounds
    for index in range(lo, hi):
        PERF.inc("test.work")
        with TELEMETRY.span("test.item", index=index):
            pass
    return hi - lo


class TestRunSharded:
    def test_serial_path_runs_inline(self):
        calls = []
        out = run_sharded(lambda state, shard: calls.append(shard)
                          or shard, "state", [(0, 2), (2, 4)], jobs=1)
        assert out == [(0, 2), (2, 4)]
        assert calls == [(0, 2), (2, 4)]

    def test_observability_totals_match_serial(self):
        """Worker PERF and spans merge home in shard order, re-id'd so
        that span ids stay unique."""
        def run(jobs):
            out = run_sharded(_counting_worker, None, chunk_bounds(20, 4),
                              jobs=jobs)
            records = TELEMETRY.tracer.snapshot()
            assert len({r["span_id"] for r in records}) == len(records)
            assert [r["attrs"] for r in records if r["name"] == "test.item"] \
                == ([{"index": i} for i in range(20)] if records else [])
            return repr(out).encode()

        arms = assert_parity(run, variants=("jobs", "traced"))
        assert arms["reference"]["perf"] == {"test.work": 20}

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pool_counters_tick(self):
        """A sharded run counts its pool and its shards: the events the
        parity harness leaves out of every comparison."""
        with counting() as window:
            run_sharded(_counting_worker, None, chunk_bounds(20, 4), jobs=2)
        assert {event: window.delta().get(event) for event in POOL_EVENTS} \
            == {"runtime.pools": 1, "runtime.shards": 4}

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_capture_ships_perf_and_spans_only(self, enabled_obs):
        """A task's capture carries its PERF delta and its spans, and
        nothing else (audit bodies only when the ledger is on)."""
        mark = capture_begin()
        assert _counting_worker(None, (0, 3)) == 3
        capture = capture_end(mark)
        assert set(capture) == {"perf", "spans"}
        assert capture["perf"] == {"test.work": 3}
        assert [r["attrs"] for r in capture["spans"]] == \
            [{"index": index} for index in range(3)]

    def test_worker_spans_nest_under_fanout_span(self, enabled_obs):
        with TELEMETRY.span("test.fanout"):
            run_sharded(_counting_worker, None, chunk_bounds(8, 2),
                        jobs=2)
        records = TELEMETRY.tracer.snapshot()
        fanout = next(r for r in records if r["name"] == "test.fanout")
        items = [r for r in records if r["name"] == "test.item"]
        assert len(items) == 8
        assert all(r["parent_id"] == fanout["span_id"] for r in items)
        assert all(r["depth"] == fanout["depth"] + 1 for r in items)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_state_cleared_after_run(self):
        run_sharded(lambda s, b: 0, object(), [(0, 1), (1, 2)], jobs=2)
        assert executor._FORK_STATE is None


class TestMemo:
    def test_miss_then_hit(self):
        memo = Memo(maxsize=8)
        found, value = memo.lookup("k")
        assert (found, value) == (False, None)
        memo.store("k", 42)
        assert memo.lookup("k") == (True, 42)
        assert memo.hits == 1 and memo.misses == 1

    def test_none_is_a_legal_value(self):
        memo = Memo(maxsize=8)
        memo.store("infeasible", None)
        found, value = memo.lookup("infeasible")
        assert found is True and value is None

    def test_lru_eviction_order(self):
        memo = Memo(maxsize=2)
        memo.store("a", 1)
        memo.store("b", 2)
        memo.lookup("a")            # refresh a: b is now LRU
        memo.store("c", 3)
        assert "b" not in memo
        assert "a" in memo and "c" in memo
        assert memo.evictions == 1

    def test_stats(self):
        memo = Memo(maxsize=8)
        memo.store("a", 1)
        memo.lookup("a")
        memo.lookup("zzz")
        assert memo.stats() == {"size": 1, "maxsize": 8, "hits": 1,
                                "misses": 1, "evictions": 0}

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            Memo(maxsize=0)

    def test_clear_is_a_fresh_memo(self):
        memo = Memo(maxsize=1)
        memo.store("a", 1)
        memo.store("b", 2)
        memo.lookup("b")
        memo.lookup("zzz")
        memo.clear()
        assert memo.stats() == Memo(maxsize=1).stats()
        assert "b" not in memo

    def test_bypass_rule(self):
        """Armed FAULTS or active telemetry bypass a cache over fault
        hook sites and timed spans; neither leaves it on."""
        with traced(False):
            assert not bypassed()
            with injected(FaultSpec("test.site", BIT_FLIP)):
                assert bypassed()
        with traced():
            assert bypassed()

    # -- get_or_build: the replaying path of process-wide memos --------

    @staticmethod
    def _builder(builds):
        def build():
            builds.append(1)
            if PERF.enabled:
                PERF.inc("test.memo.builds")
            return len(builds)
        return build

    def test_get_or_build_miss_then_hit(self, monkeypatch):
        memo, builds = Memo(maxsize=8), []
        build = self._builder(builds)
        monkeypatch.setattr(PERF, "enabled", False)
        assert memo.get_or_build("k", build) == 1
        assert memo.get_or_build("k", build) == 1
        assert builds == [1]
        assert (memo.hits, memo.misses) == (1, 1)

    def test_get_or_build_serves_none(self):
        memo, builds = Memo(maxsize=8), []

        def build():
            builds.append(1)

        with counting():
            assert memo.get_or_build("k", build) is None
            assert memo.get_or_build("k", build) is None
        assert builds == [1]

    def test_get_or_build_hit_replays_delta(self):
        memo, builds = Memo(maxsize=8), []
        build = self._builder(builds)
        with counting() as cold:
            memo.get_or_build("k", build)
        cold_delta = cold.delta()
        with counting() as warm:
            assert memo.get_or_build("k", build) == 1
        assert builds == [1]
        assert cold_delta == {"test.memo.builds": 1}
        assert warm.delta() == cold_delta

    def test_get_or_build_rebuilds_perf_off_entry(self, monkeypatch):
        memo, builds = Memo(maxsize=8), []
        build = self._builder(builds)
        monkeypatch.setattr(PERF, "enabled", False)
        memo.get_or_build("k", build)
        with counting() as first:
            assert memo.get_or_build("k", build) == 2
        first_delta = first.delta()
        with counting() as second:
            assert memo.get_or_build("k", build) == 2
        assert builds == [1, 1]
        assert first_delta == second.delta() == {"test.memo.builds": 1}
