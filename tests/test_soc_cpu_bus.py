"""Tests for the hart model and the shared bus arbitration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.perf import counting
from repro.soc import (AccessFault, FcfsArbiter, Hart, PhysicalMemory,
                       PrivilegeMode, RoundRobinArbiter, SharedBus,
                       StackModel, StackOverflowFault, TdmArbiter,
                       Transaction, DRAM_BASE)

M = PrivilegeMode.MACHINE
S = PrivilegeMode.SUPERVISOR
U = PrivilegeMode.USER


class TestStackModel:
    def test_high_water_tracking(self):
        stack = StackModel(1024)
        stack.push_frame(100)
        stack.push_frame(200)
        stack.pop_frame()
        stack.push_frame(50)
        assert stack.depth == 150
        assert stack.high_water == 300

    def test_guarded_overflow_raises(self):
        stack = StackModel(100)
        with pytest.raises(StackOverflowFault):
            stack.push_frame(101)

    def test_unguarded_overflow_corrupts_silently(self):
        """The paper's 8 KB SM stack bug: no guard page, silent damage."""
        stack = StackModel(100, guard=False)
        stack.push_frame(101)
        assert stack.corrupted

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            StackModel(100).pop_frame()

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            StackModel(100).push_frame(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=20))
    def test_balanced_push_pop_returns_to_zero(self, frames):
        stack = StackModel(10_000)
        for frame in frames:
            stack.push_frame(frame)
        for _ in frames:
            stack.pop_frame()
        assert stack.depth == 0
        assert stack.high_water == (max(
            [sum(frames[:i + 1]) for i in range(len(frames))], default=0))


class TestHart:
    @pytest.fixture
    def hart(self):
        return Hart(0, PhysicalMemory())

    def test_machine_mode_by_default(self, hart):
        assert hart.mode is M

    def test_privilege_drop_and_trap(self, hart):
        hart.drop_to(U)
        assert hart.mode is U
        hart.trap("ecall")
        assert hart.mode is M
        assert hart.trap_log == [("ecall", U)]

    def test_cannot_raise_privilege_without_trap(self, hart):
        hart.drop_to(U)
        with pytest.raises(PermissionError):
            hart.drop_to(S)

    def test_pmp_enforced_on_load(self, hart):
        hart.memory.write(DRAM_BASE, b"secret")
        hart.drop_to(U)
        with pytest.raises(AccessFault):
            hart.load(DRAM_BASE, 6)

    def test_pmp_window_allows_load(self, hart):
        hart.memory.write(DRAM_BASE, b"secret")
        hart.pmp.set_napot(0, DRAM_BASE, 0x1000, readable=True)
        hart.drop_to(U)
        assert hart.load(DRAM_BASE, 6) == b"secret"

    def test_store_and_fetch_checked(self, hart):
        hart.pmp.set_napot(0, DRAM_BASE, 0x1000, readable=True,
                           writable=True)
        hart.drop_to(U)
        hart.store(DRAM_BASE, b"data")
        with pytest.raises(AccessFault):
            hart.fetch(DRAM_BASE)

    def test_run_with_stack_charges_and_releases(self, hart):
        result = hart.run_with_stack(lambda: 42, 1000)
        assert result == 42
        assert hart.stack.depth == 0
        assert hart.stack.high_water == 1000

    def test_run_with_stack_overflow(self, hart):
        with pytest.raises(StackOverflowFault):
            hart.run_with_stack(lambda: None, 9 * 1024)


class TestArbiters:
    def _drain(self, arbiter, submissions):
        bus = SharedBus(arbiter)
        for requestor, issue in submissions:
            bus.submit(Transaction(requestor, issue))
        return bus.run_until_drained()

    def test_fcfs_order(self):
        done = self._drain(FcfsArbiter(),
                           [("b", 0), ("a", 0), ("a", 1)])
        assert [t.requestor for t in done] == ["a", "b", "a"] or \
            [t.requestor for t in done][0] in ("a", "b")
        assert len(done) == 3

    def test_round_robin_alternates(self):
        bus = SharedBus(RoundRobinArbiter(["a", "b"]))
        for _ in range(3):
            bus.submit(Transaction("a", 0))
            bus.submit(Transaction("b", 0))
        done = bus.run_until_drained()
        order = [t.requestor for t in done]
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_tdm_respects_slot_ownership(self):
        bus = SharedBus(TdmArbiter(["a", "b"]))
        bus.submit(Transaction("b", 0))
        done = bus.run_until_drained()
        # b's transaction can only start in b's slot (odd cycles).
        assert done[0].completed_cycle % 2 == 0  # granted at 1, done at 2

    def test_tdm_rejects_empty_table(self):
        with pytest.raises(ValueError):
            TdmArbiter([])

    def test_tdm_multi_cycle_must_fit_slot_run(self):
        bus = SharedBus(TdmArbiter(["a", "a", "b"]))
        bus.submit(Transaction("a", 0, latency=2))
        bus.submit(Transaction("b", 0, latency=1))
        done = bus.run_until_drained()
        by_name = {t.requestor: t for t in done}
        # a starts at cycle 0 (slots 0,1 both a's), b at its slot 2.
        assert by_name["a"].completed_cycle == 2
        assert by_name["b"].completed_cycle == 3

    def test_stats_accumulate(self):
        bus = SharedBus(FcfsArbiter())
        bus.submit(Transaction("x", 0))
        bus.submit(Transaction("x", 0))
        bus.run_until_drained()
        assert bus.stats["x"].served == 2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                    max_size=30))
    def test_all_arbiters_serve_everything(self, names):
        for arbiter in (FcfsArbiter(), RoundRobinArbiter(["a", "b", "c"]),
                        TdmArbiter(["a", "b", "c"])):
            bus = SharedBus(arbiter)
            for name in names:
                bus.submit(Transaction(name, 0))
            done = bus.run_until_drained()
            assert len(done) == len(names)

    def test_tdm_composability_core_property(self):
        """a's completion times are identical with and without b's load."""
        def run(with_b):
            bus = SharedBus(TdmArbiter(["a", "b"]))
            for i in range(5):
                bus.submit(Transaction("a", 0))
            if with_b:
                for i in range(50):
                    bus.submit(Transaction("b", 0))
            bus.run_until_drained()
            return bus.stats["a"].completion_times

        assert run(with_b=False) == run(with_b=True)

    @pytest.mark.parametrize("arbiter,completions,counters", [
        (FcfsArbiter, [1, 3, 4, 7, 8, 10, 11],
         {"cycles": 12, "grants": 7, "requests": 7, "served": 7,
          "wait_cycles": 23}),
        (lambda: RoundRobinArbiter(["a", "b", "c"]),
         [1, 3, 4, 7, 8, 10, 11],
         {"cycles": 12, "grants": 7, "requests": 7, "served": 7,
          "wait_cycles": 23}),
        (lambda: TdmArbiter(["a", "a", "a", "b", "b", "c", "c"]),
         [1, 5, 6, 10, 11, 14, 15],
         {"cycles": 16, "grants": 7, "requests": 7, "served": 7,
          "stall_cycles": 4, "wait_cycles": 41}),
    ], ids=("fcfs", "round-robin", "tdm"))
    def test_perf_counters_pinned(self, arbiter, completions, counters):
        """Completion cycles and every ``soc.bus.*`` counter of one
        mixed-latency drain, pinned before the bus kept its waiting
        count."""
        bus = SharedBus(arbiter())
        with counting() as window:
            for issue, (name, latency) in enumerate(
                    [("a", 1), ("b", 2), ("c", 1), ("a", 3), ("b", 1),
                     ("c", 2), ("a", 1)]):
                bus.submit(Transaction(name, issue, latency=latency))
            done = bus.run_until_drained()
        assert [t.completed_cycle for t in done] == completions
        assert window.delta() == {f"soc.bus.{event}": count
                                  for event, count in counters.items()}

    def test_wedged_and_idle_perf_counters_pinned(self):
        """A transaction that never fits its TDM slot run stalls every
        cycle up to the watchdog; an idle bus only counts cycles."""
        bus = SharedBus(TdmArbiter(["a", "b"]))
        with counting() as window:
            bus.submit(Transaction("a", 0))
            bus.submit(Transaction("a", 1, latency=2))
            bus.submit(Transaction("b", 2))
            with pytest.raises(RuntimeError, match="cycle budget"):
                bus.run_until_drained(max_cycles=40)
        assert bus.cycle == 40
        assert window.delta() == {
            "soc.bus.cycles": 40, "soc.bus.grants": 2,
            "soc.bus.requests": 3, "soc.bus.served": 2,
            "soc.bus.stall_cycles": 38, "soc.bus.wait_cycles": 1}
        idle = SharedBus(TdmArbiter(["a", "b"]))
        with counting() as window:
            for _ in range(3):
                assert idle.step() == []
        assert window.delta() == {"soc.bus.cycles": 3}

    def test_fcfs_not_composable(self):
        """Under FCFS the same experiment shows interference."""
        def run(with_b):
            bus = SharedBus(FcfsArbiter())
            if with_b:
                for i in range(50):
                    bus.submit(Transaction("b", 0))
            for i in range(5):
                bus.submit(Transaction("a", 1))
            bus.run_until_drained()
            return bus.stats["a"].completion_times

        assert run(with_b=False) != run(with_b=True)
