"""Task model for the PMP-hardened RTOS.

A task is a generator-based coroutine: its entry function receives a
:class:`TaskContext` and yields control back to the kernel at every
simulation step (``yield`` = consume one tick; ``yield syscall`` =
request a kernel service).  This models FreeRTOS's preemptive priority
scheduling at tick granularity without threading.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..soc.memory import Region


class TaskState(Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DELAYED = "delayed"
    DONE = "done"
    FAULTED = "faulted"
    SUSPENDED = "suspended"


# -- syscall objects a task can yield ---------------------------------------


@dataclass(frozen=True)
class Delay:
    """Sleep for ``ticks`` kernel ticks."""

    ticks: int


@dataclass(frozen=True)
class Send:
    """Enqueue ``item`` on ``queue`` (blocks while full)."""

    queue: object
    item: object


@dataclass(frozen=True)
class Receive:
    """Dequeue from ``queue`` (blocks while empty); the value is
    delivered as the result of the yield."""

    queue: object


class TaskStackOverflow(Exception):
    """A task exceeded its own stack allocation (detected by the
    kernel's stack-overflow check, configCHECK_FOR_STACK_OVERFLOW
    style)."""


class TaskContext:
    """What a running task sees: its identity plus PMP-checked memory.

    All loads/stores go through the hart, which enforces the PMP view
    the kernel installed for this task — a task touching memory outside
    its regions faults exactly like it would on the Fig. 3 system.
    Stack usage is charged through :meth:`push_stack` so the kernel
    can track per-task high-water marks and catch overflows.
    """

    def __init__(self, task: "Task", hart):
        self.task = task
        self._hart = hart

    def load(self, address: int, size: int) -> bytes:
        return self._hart.load(address, size)

    def store(self, address: int, data: bytes) -> None:
        self._hart.store(address, data)

    def push_stack(self, frame_bytes: int) -> None:
        """Charge a stack frame; raises :class:`TaskStackOverflow` when
        the task's stack region is exhausted."""
        self.task.stack_used += frame_bytes
        self.task.stack_high_water = max(self.task.stack_high_water,
                                         self.task.stack_used)
        if self.task.stack_used > self.task.stack_region.size:
            raise TaskStackOverflow(
                f"{self.task.name}: {self.task.stack_used} B used of "
                f"{self.task.stack_region.size} B stack")


class Task:
    """One RTOS task with a priority, a stack region and data regions."""

    def __init__(self, name: str, priority: int, entry,
                 stack_region: Region, data_regions: tuple = (),
                 budget_ticks: int = None, deadline_ticks: int = None):
        if priority < 0:
            raise ValueError("priority must be non-negative")
        self.name = name
        self.priority = priority
        self.entry = entry
        self.stack_region = stack_region
        self.data_regions = tuple(data_regions)
        self.budget_ticks = budget_ticks
        self.deadline_ticks = deadline_ticks
        self.state = TaskState.READY
        self.wake_tick = 0
        self.ticks_run = 0
        self.budget_used = 0
        self.fault = None
        self.stack_used = 0
        self.stack_high_water = 0
        self.deadline_missed = False
        self._generator = None
        self._pending_value = None

    def regions(self) -> tuple:
        return (self.stack_region,) + self.data_regions

    def start(self, context: TaskContext) -> None:
        self._generator = self.entry(context)

    def step(self):
        """Advance one step; returns the yielded syscall (or None).

        Raises ``StopIteration`` when the task finishes and propagates
        :class:`AccessFault` for the kernel to convert into a fault.
        """
        value, self._pending_value = self._pending_value, None
        return self._generator.send(value)

    def deliver(self, value) -> None:
        """Set the value the next ``step`` resumes the generator with."""
        self._pending_value = value
