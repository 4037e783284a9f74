"""Tests for the RTOS extensions: stack-overflow detection and the
deadline watchdog."""

import pytest

from repro.rtos import Delay, Kernel, TaskState


class TestStackOverflowDetection:
    def test_overflow_faults_task(self):
        kernel = Kernel()

        def hungry(ctx):
            ctx.push_stack(5000)        # beyond the 4096-byte stack
            yield

        task = kernel.create_task("hungry", 1, hungry)
        kernel.run(10)
        assert task.state is TaskState.FAULTED
        assert any(e.kind == "stack-overflow" for e in kernel.events)

    def test_overflow_contained(self):
        kernel = Kernel()

        def hungry(ctx):
            ctx.push_stack(5000)
            yield

        def worker(ctx):
            for _ in range(5):
                yield

        kernel.create_task("hungry", 9, hungry)
        worker_task = kernel.create_task("worker", 1, worker)
        kernel.run(30)
        assert worker_task.state is TaskState.DONE

    def test_high_water_tracking(self):
        kernel = Kernel()

        def nested(ctx):
            ctx.push_stack(1000)
            yield
            ctx.push_stack(2000)
            yield
            ctx.task.stack_used -= 2000
            ctx.task.stack_used -= 1000
            yield

        task = kernel.create_task("nested", 1, nested)
        kernel.run(20)
        assert task.stack_high_water == 3000
        assert task.stack_used == 0


class TestDeadlineWatchdog:
    def test_deadline_met(self):
        kernel = Kernel()

        def quick(ctx):
            yield
            yield

        task = kernel.create_task("quick", 1, quick, deadline_ticks=20)
        kernel.run(50)
        assert not task.deadline_missed

    def test_deadline_missed_flagged(self):
        kernel = Kernel()

        def slow(ctx):
            yield Delay(50)
            yield

        task = kernel.create_task("slow", 1, slow, deadline_ticks=10)
        kernel.run(100)
        assert task.deadline_missed
        assert any(e.kind == "deadline-missed" for e in kernel.events)

    def test_deadline_miss_caused_by_interference(self):
        """A deadline miss caused by a higher-priority hog is exactly
        what execution budgets prevent."""
        def victim(ctx):
            for _ in range(5):
                yield

        def hog(ctx):
            for _ in range(200):
                yield

        # Without budgets: the hog starves the victim past its deadline.
        kernel = Kernel()
        victim_task = kernel.create_task("victim", 1, victim,
                                         deadline_ticks=30)
        kernel.create_task("hog", 9, hog)
        kernel.run(100)
        assert victim_task.deadline_missed

        # With a budget on the hog: the victim makes its deadline.
        kernel = Kernel(budget_window=40)
        victim_task = kernel.create_task("victim", 1, victim,
                                         deadline_ticks=30)
        kernel.create_task("hog", 9, hog, budget_ticks=10)
        kernel.run(100)
        assert not victim_task.deadline_missed

    def test_deadline_only_logged_once(self):
        kernel = Kernel()

        def slow(ctx):
            yield Delay(80)

        kernel.create_task("slow", 1, slow, deadline_ticks=5)
        kernel.run(60)
        misses = [e for e in kernel.events if e.kind == "deadline-missed"]
        assert len(misses) == 1
