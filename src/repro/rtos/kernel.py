"""The FreeRTOS-style kernel with PMP-backed task isolation (Fig. 3).

Preemptive priority scheduling at tick granularity: on every tick the
highest-priority ready task runs one step under its own PMP view
(installed by :class:`~repro.rtos.mpu.TaskMemoryProtection`).  A task
that touches foreign memory takes an access fault; the kernel kills it
and the rest of the system keeps running — the "endure and recuperate"
property the paper evaluates with diverse attack scenarios.

Optional per-task execution budgets provide the time-protection analogue
(a CPU-hogging task is suspended for the rest of its budget window), so
scheduling-interference attacks are also containable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.injector import FAULTS
from ..faults.models import STACK_SMASH, TASK_BIT_FLIP, WILD_STORE, \
    flip_bit
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..soc.cpu import Hart
from ..soc.memory import AccessFault, PhysicalMemory, Region
from .ipc import MessageQueue
from .mpu import TaskMemoryProtection
from .task import (Delay, Receive, Send, Task, TaskContext,
                   TaskStackOverflow, TaskState)

KERNEL_REGION_SIZE = 256 * 1024
MIN_ALLOC = 4096


@dataclass
class KernelEvent:
    tick: int
    kind: str
    task: str
    detail: str = ""


@dataclass
class KernelStats:
    ticks: int = 0
    context_switches: int = 0
    faults: int = 0
    injected_faults: int = 0          # faults fired into tasks
    contained_faults: int = 0         # faults the kernel caught and
                                      # confined to the faulting task
    run_ticks: dict = field(default_factory=dict)


class Kernel:
    """The RTOS kernel instance.

    Parameters
    ----------
    protected:
        True installs per-task PMP views (the hardened port); False
        reproduces the flat-memory baseline.
    budget_window:
        Length in ticks of the budget-enforcement window for tasks
        created with a ``budget_ticks`` limit.
    """

    def __init__(self, memory: PhysicalMemory = None, hart: Hart = None,
                 protected: bool = True, budget_window: int = 100):
        self.memory = memory or PhysicalMemory()
        self.hart = hart or Hart(0, self.memory)
        dram = self.memory.memory_map["dram"]
        self.kernel_region = Region("kernel", dram.base,
                                    KERNEL_REGION_SIZE)
        self._alloc_cursor = dram.base + KERNEL_REGION_SIZE
        self._dram_end = dram.end
        self.protected = protected
        self.mpu = TaskMemoryProtection(self.hart, protected=protected)
        self.budget_window = budget_window
        self.tasks = []
        self.tick = 0
        self.events = []
        self.stats = KernelStats()
        self._queue_senders = {}
        self._queue_receivers = {}
        self._running = None

    # -- memory allocation ---------------------------------------------

    def _allocate(self, name: str, size: int) -> Region:
        """Carve a NAPOT-aligned region out of DRAM."""
        rounded = MIN_ALLOC
        while rounded < size:
            rounded <<= 1
        base = (self._alloc_cursor + rounded - 1) // rounded * rounded
        if base + rounded > self._dram_end:
            raise RuntimeError("out of task DRAM")
        self._alloc_cursor = base + rounded
        return Region(name, base, rounded)

    # -- task management --------------------------------------------------

    def create_task(self, name: str, priority: int, entry,
                    data_bytes: int = 0, budget_ticks: int = None,
                    deadline_ticks: int = None) -> Task:
        """A task with a ``MIN_ALLOC``-byte stack; no task is granted
        the MMIO window."""
        stack = self._allocate(f"{name}.stack", MIN_ALLOC)
        data_regions = ()
        if data_bytes:
            data_regions = (self._allocate(f"{name}.data", data_bytes),)
        task = Task(name, priority, entry, stack,
                    data_regions=data_regions, budget_ticks=budget_ticks,
                    deadline_ticks=deadline_ticks)
        task.release_tick = self.tick
        self.tasks.append(task)
        self.stats.run_ticks[name] = 0
        return task

    def queue(self, capacity: int = 8) -> MessageQueue:
        q = MessageQueue(capacity)
        self._queue_senders[id(q)] = []
        self._queue_receivers[id(q)] = []
        return q

    # -- scheduling --------------------------------------------------------

    def _wake_delayed(self) -> None:
        for task in self.tasks:
            if task.state is TaskState.DELAYED and \
                    self.tick >= task.wake_tick:
                task.state = TaskState.READY
            if task.state is TaskState.SUSPENDED and \
                    self.tick % self.budget_window == 0:
                task.budget_used = 0
                task.state = TaskState.READY
                self._log("budget-replenished", task)

    def _pick(self):
        ready = [t for t in self.tasks if t.state in (TaskState.READY,
                                                      TaskState.RUNNING)]
        if not ready:
            return None
        best = max(ready, key=lambda t: t.priority)
        peers = [t for t in ready if t.priority == best.priority]
        if self._running in peers and len(peers) > 1:
            # Round-robin among equal priorities.
            index = peers.index(self._running)
            return peers[(index + 1) % len(peers)]
        return best

    def _log(self, kind: str, task, detail: str = "") -> None:
        self.events.append(KernelEvent(self.tick, kind,
                                       task.name if task else "-",
                                       detail))

    # -- syscall handling --------------------------------------------------

    def _handle_send(self, task: Task, call: Send) -> None:
        queue = call.queue
        if queue.full:
            task.state = TaskState.BLOCKED
            self._queue_senders[id(queue)].append((task, call.item))
            self._log("blocked-send", task)
        else:
            queue.push(call.item)
            self._wake_receiver(queue)

    def _handle_receive(self, task: Task, call: Receive) -> None:
        queue = call.queue
        if queue.empty:
            task.state = TaskState.BLOCKED
            self._queue_receivers[id(queue)].append(task)
            self._log("blocked-receive", task)
        else:
            task.deliver(queue.pop())
            self._wake_sender(queue)

    def _wake_receiver(self, queue) -> None:
        receivers = self._queue_receivers[id(queue)]
        if receivers and not queue.empty:
            receivers.sort(key=lambda t: -t.priority)
            task = receivers.pop(0)
            task.deliver(queue.pop())
            task.state = TaskState.READY
            self._wake_sender(queue)

    def _wake_sender(self, queue) -> None:
        senders = self._queue_senders[id(queue)]
        if senders and not queue.full:
            senders.sort(key=lambda pair: -pair[0].priority)
            task, item = senders.pop(0)
            queue.push(item)
            task.state = TaskState.READY
            self._wake_receiver(queue)

    def _check_deadlines(self) -> None:
        """Deadline watchdog: flag tasks that outlive their deadline."""
        for task in self.tasks:
            if task.deadline_ticks is None or task.deadline_missed:
                continue
            if task.state is TaskState.DONE:
                continue
            if self.tick - task.release_tick > task.deadline_ticks:
                task.deadline_missed = True
                self._log("deadline-missed", task)

    # -- the tick loop -------------------------------------------------

    def run(self, max_ticks: int = 1000) -> KernelStats:
        """Run the scheduler for ``max_ticks`` or until all tasks end."""
        with TELEMETRY.span("rtos.kernel.run", max_ticks=max_ticks,
                            protected=self.protected) as span:
            start_tick = self.tick
            stats = self._run_loop(max_ticks)
            if TELEMETRY.enabled:
                # One scheduling decision per elapsed tick, plus the
                # one that found nothing left to run and ended early.
                elapsed = self.tick - start_tick
                kinds = [event.kind for event in self.events]
                span.set_attr("ticks", stats.ticks)
                span.set_attr("faults", stats.faults)
                span.set_attr("scheduler_decisions",
                              elapsed + (elapsed < max_ticks))
                span.set_attr("pmp_faults", kinds.count("access-fault"))
                span.set_attr("stack_overflows",
                              kinds.count("stack-overflow"))
            return stats

    def _run_loop(self, max_ticks: int) -> KernelStats:
        end_tick = self.tick + max_ticks
        while self.tick < end_tick:
            self._wake_delayed()
            self._check_deadlines()
            task = self._pick()
            if task is None:
                live = any(t.state in (TaskState.BLOCKED,
                                       TaskState.DELAYED,
                                       TaskState.SUSPENDED)
                           for t in self.tasks)
                if not live:
                    break
                self.tick += 1
                self.stats.ticks += 1
                continue
            if task is not self._running:
                self.stats.context_switches += 1
                if PERF.enabled:
                    PERF.inc("rtos.context_switches")
                self.mpu.install(task)
                self._running = task
            task.state = TaskState.RUNNING
            if task._generator is None:
                task.start(TaskContext(task, self.hart))
            self.mpu.enter_task_mode()
            try:
                if FAULTS.enabled:
                    self._inject_fault(task)
                call = task.step()
            except StopIteration:
                task.state = TaskState.DONE
                self._log("done", task)
                self._running = None
                call = None
            except AccessFault as fault:
                task.state = TaskState.FAULTED
                task.fault = fault
                self.stats.faults += 1
                self.stats.contained_faults += 1
                if PERF.enabled:
                    PERF.inc("rtos.faults_contained")
                if AUDIT.enabled:
                    AUDIT.emit("rtos.kernel", "fault-contained",
                               severity="warning",
                               cause="access-fault", task=task.name,
                               tick=self.tick)
                self._log("access-fault", task, str(fault))
                self._running = None
                call = None
            except TaskStackOverflow as fault:
                task.state = TaskState.FAULTED
                task.fault = fault
                self.stats.faults += 1
                self.stats.contained_faults += 1
                if PERF.enabled:
                    PERF.inc("rtos.faults_contained")
                if AUDIT.enabled:
                    AUDIT.emit("rtos.kernel", "fault-contained",
                               severity="warning",
                               cause="stack-overflow", task=task.name,
                               tick=self.tick)
                self._log("stack-overflow", task, str(fault))
                self._running = None
                call = None
            finally:
                self.mpu.enter_kernel_mode()
            if task.state is TaskState.RUNNING:
                task.state = TaskState.READY
                if isinstance(call, Delay):
                    task.state = TaskState.DELAYED
                    task.wake_tick = self.tick + call.ticks
                elif isinstance(call, Send):
                    self._handle_send(task, call)
                elif isinstance(call, Receive):
                    self._handle_receive(task, call)
            task.ticks_run += 1
            self.stats.run_ticks[task.name] += 1
            if task.budget_ticks is not None:
                task.budget_used += 1
                if task.budget_used >= task.budget_ticks and \
                        task.state in (TaskState.READY,
                                       TaskState.RUNNING):
                    task.state = TaskState.SUSPENDED
                    self._log("budget-exhausted", task)
            self.tick += 1
            self.stats.ticks += 1
            if PERF.enabled:
                PERF.inc("rtos.ticks")
        return self.stats

    # -- fault injection ---------------------------------------------------

    def _inject_fault(self, task: Task) -> None:
        """Fire a pending ``rtos.kernel.task`` fault into ``task``.

        Runs with the task's PMP view installed, so a wild store into
        kernel memory is exactly what the hardened port must contain:
        under ``protected=True`` the PMP raises an
        :class:`~repro.soc.memory.AccessFault` (caught by the run
        loop, task killed, system keeps running); under the flat
        baseline the store lands and silently corrupts kernel state.
        """
        spec = FAULTS.fire("rtos.kernel.task")
        if spec is None:
            return
        self.stats.injected_faults += 1
        if spec.model == WILD_STORE:
            offset = spec.bit % (self.kernel_region.size - 16)
            self.hart.store(self.kernel_region.base + offset, b"\xfb")
        elif spec.model == STACK_SMASH:
            raise TaskStackOverflow(
                f"injected stack smash in task {task.name!r}")
        elif spec.model == TASK_BIT_FLIP:
            region = (task.data_regions[0] if task.data_regions
                      else task.stack_region)
            offset = spec.bit % region.size
            byte = self.hart.load(region.base + offset, 1)
            self.hart.store(region.base + offset,
                            flip_bit(byte, spec.bit % 8))

    # -- health -----------------------------------------------------------

    def alive_tasks(self) -> list:
        return [t for t in self.tasks
                if t.state not in (TaskState.DONE, TaskState.FAULTED)]
