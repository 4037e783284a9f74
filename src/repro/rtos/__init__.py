"""FreeRTOS-style kernel hardened with RISC-V PMP (paper Section III-D,
Fig. 3).

* :mod:`~repro.rtos.kernel` — preemptive priority scheduler with
  per-task PMP views and execution budgets
* :mod:`~repro.rtos.task` — generator-based tasks and syscalls
* :mod:`~repro.rtos.ipc` — bounded message queues
* :mod:`~repro.rtos.mpu` — the PMP context switcher (and the flat
  baseline)
* :mod:`~repro.rtos.attacks` — the attack-scenario evaluation suite
"""

from .task import (Delay, Receive, Send, Task, TaskContext,
                   TaskStackOverflow, TaskState)
from .ipc import MessageQueue
from .mpu import TaskMemoryProtection
from .kernel import Kernel, KernelEvent, KernelStats
from .attacks import (SCENARIOS, ScenarioOutcome, run_all_scenarios,
                      SECRET)

__all__ = [
    "Delay", "Receive", "Send",
    "Task", "TaskContext", "TaskStackOverflow", "TaskState",
    "MessageQueue", "TaskMemoryProtection",
    "Kernel", "KernelEvent", "KernelStats",
    "SCENARIOS", "ScenarioOutcome", "run_all_scenarios", "SECRET",
]
