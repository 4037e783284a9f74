"""Tests for the PMP-hardened RTOS: scheduling, IPC, isolation, and the
Fig. 3 attack-scenario suite."""

import pytest

from repro.rtos import (Delay, Kernel, MessageQueue, Receive, Send,
                        TaskState, run_all_scenarios)


def _spin(ticks):
    def entry(ctx):
        for _ in range(ticks):
            yield
    return entry


class TestScheduler:
    def test_tasks_run_to_completion(self):
        kernel = Kernel()
        task = kernel.create_task("t", 1, _spin(5))
        kernel.run(50)
        assert task.state is TaskState.DONE
        assert task.ticks_run >= 5

    def test_higher_priority_preempts(self):
        kernel = Kernel()
        low = kernel.create_task("low", 1, _spin(10))
        high = kernel.create_task("high", 5, _spin(10))
        kernel.run(12)
        assert high.ticks_run > low.ticks_run

    def test_equal_priority_round_robin(self):
        kernel = Kernel()
        a = kernel.create_task("a", 1, _spin(20))
        b = kernel.create_task("b", 1, _spin(20))
        kernel.run(20)
        assert abs(a.ticks_run - b.ticks_run) <= 1

    def test_delay_suspends_task(self):
        kernel = Kernel()
        events = []

        def sleeper(ctx):
            events.append(("before", kernel.tick))
            yield Delay(10)
            events.append(("after", kernel.tick))

        kernel.create_task("s", 1, sleeper)
        kernel.run(30)
        assert events[1][1] - events[0][1] >= 10

    def test_idle_when_all_delayed(self):
        kernel = Kernel()

        def sleeper(ctx):
            yield Delay(5)

        kernel.create_task("s", 1, sleeper)
        stats = kernel.run(30)
        assert stats.ticks >= 5

    def test_run_stops_when_everything_done(self):
        kernel = Kernel()
        kernel.create_task("t", 1, _spin(3))
        stats = kernel.run(1000)
        assert stats.ticks < 1000

    def test_budget_suspends_hog(self):
        kernel = Kernel(budget_window=50)
        hog = kernel.create_task("hog", 9, _spin(200), budget_ticks=10)
        worker = kernel.create_task("worker", 1, _spin(50))
        kernel.run(60)
        assert worker.ticks_run > 10   # hog could not monopolise
        assert any(e.kind == "budget-exhausted" for e in kernel.events)

    def test_budget_replenishes(self):
        kernel = Kernel(budget_window=20)
        hog = kernel.create_task("hog", 9, _spin(100), budget_ticks=5)
        kernel.create_task("w", 1, _spin(300))
        kernel.run(200)
        assert any(e.kind == "budget-replenished"
                   for e in kernel.events)
        assert hog.ticks_run > 5       # got to run again after refills


class TestIpc:
    def test_queue_roundtrip(self):
        kernel = Kernel()
        q = kernel.queue(4)
        received = []

        def producer(ctx):
            for i in range(3):
                yield Send(q, i)

        def consumer(ctx):
            for _ in range(3):
                value = yield Receive(q)
                received.append(value)

        kernel.create_task("p", 1, producer)
        kernel.create_task("c", 1, consumer)
        kernel.run(50)
        assert received == [0, 1, 2]

    def test_receive_blocks_until_data(self):
        kernel = Kernel()
        q = kernel.queue(4)
        received = []

        def consumer(ctx):
            value = yield Receive(q)
            received.append(value)

        def late_producer(ctx):
            yield Delay(10)
            yield Send(q, "late")

        consumer_task = kernel.create_task("c", 5, consumer)
        kernel.create_task("p", 1, late_producer)
        kernel.run(5)
        assert consumer_task.state is TaskState.BLOCKED
        kernel.run(30)
        assert received == ["late"]

    def test_send_blocks_when_full(self):
        kernel = Kernel()
        q = kernel.queue(1)

        def producer(ctx):
            yield Send(q, 1)
            yield Send(q, 2)   # blocks: capacity 1, nobody consuming yet
            yield

        producer_task = kernel.create_task("p", 1, producer)
        kernel.run(5)
        assert producer_task.state is TaskState.BLOCKED

    def test_queue_validation(self):
        with pytest.raises(ValueError):
            MessageQueue(0)


class TestIsolation:
    def test_task_reads_own_data(self):
        kernel = Kernel()
        seen = []

        def entry(ctx):
            ctx.store(ctx.task.stack_region.base, b"hello")
            seen.append(ctx.load(ctx.task.stack_region.base, 5))
            yield

        kernel.create_task("t", 1, entry)
        kernel.run(10)
        assert seen == [b"hello"]

    def test_cross_task_read_faults_when_protected(self):
        kernel = Kernel(protected=True)
        victim = kernel.create_task("v", 1, _spin(20), data_bytes=4096)

        def attacker(ctx):
            yield
            ctx.load(victim.data_regions[0].base, 4)
            yield

        attacker_task = kernel.create_task("a", 1, attacker)
        kernel.run(30)
        assert attacker_task.state is TaskState.FAULTED
        assert victim.state is not TaskState.FAULTED

    def test_cross_task_read_allowed_when_flat(self):
        kernel = Kernel(protected=False)
        victim = kernel.create_task("v", 1, _spin(20), data_bytes=4096)
        grabbed = []

        def attacker(ctx):
            yield
            grabbed.append(ctx.load(victim.data_regions[0].base, 4))
            yield

        attacker_task = kernel.create_task("a", 1, attacker)
        kernel.run(30)
        assert attacker_task.state is not TaskState.FAULTED
        assert grabbed

    def test_kernel_region_protected(self):
        kernel = Kernel(protected=True)

        def attacker(ctx):
            yield
            ctx.store(kernel.kernel_region.base, b"x")

        task = kernel.create_task("a", 1, attacker)
        kernel.run(10)
        assert task.state is TaskState.FAULTED

    def test_mmio_denied_to_tasks(self):
        kernel = Kernel(protected=True)
        mmio = kernel.memory.memory_map["mmio"]

        def rogue(ctx):
            ctx.store(mmio.base, b"\x02")
            yield

        rogue_task = kernel.create_task("rogue", 1, rogue)
        kernel.run(20)
        assert rogue_task.state is TaskState.FAULTED

    def test_fault_recovery_system_keeps_running(self):
        kernel = Kernel(protected=True)

        def crasher(ctx):
            ctx.load(kernel.kernel_region.base, 4)
            yield

        worker_done = []

        def worker(ctx):
            for _ in range(10):
                yield
            worker_done.append(True)

        kernel.create_task("crash", 9, crasher)
        kernel.create_task("work", 1, worker)
        kernel.run(50)
        assert worker_done == [True]
        assert kernel.stats.faults == 1


class TestAttackSuite:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return {
            False: run_all_scenarios(protected=False),
            True: run_all_scenarios(protected=True),
        }

    def test_all_attacks_succeed_on_flat_kernel(self, outcomes):
        assert all(o.attack_succeeded for o in outcomes[False])

    def test_all_attacks_blocked_on_protected_kernel(self, outcomes):
        assert not any(o.attack_succeeded for o in outcomes[True])

    def test_attackers_contained_when_protected(self, outcomes):
        assert all(o.attacker_contained for o in outcomes[True])

    def test_victims_always_survive_when_protected(self, outcomes):
        assert all(o.victim_survived for o in outcomes[True])

    def test_scenario_coverage(self, outcomes):
        names = {o.name for o in outcomes[True]}
        assert names == {"steal-secret", "smash-stack", "corrupt-kernel",
                         "hijack-peripheral", "starve-scheduler"}
