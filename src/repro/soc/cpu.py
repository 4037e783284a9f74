"""Hart (hardware thread) model: privilege modes, PMP-checked accesses
and stack accounting.

This is not an ISA simulator — the TEE and RTOS substrates need exactly
three architectural behaviours from a core:

1. privilege transitions (M/S/U) with trap entry into M-mode,
2. every load/store/fetch filtered through the hart's PMP, and
3. a stack model with a high-water mark, so the security monitor's
   8 KB-vs-128 KB stack experiment (paper Section III-B) can be run as a
   real measurement instead of an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.injector import FAULTS
from ..faults.models import INSTRUCTION_SKIP
from ..obs.perf import PERF
from .memory import AccessFault, PhysicalMemory
from .pmp import Pmp, PrivilegeMode


class StackOverflowFault(Exception):
    """A stack frame allocation exceeded the configured stack size."""

    def __init__(self, message: str, requested: int, limit: int):
        super().__init__(message)
        self.requested = requested
        self.limit = limit


@dataclass
class StackModel:
    """Downward-growing stack with watermark tracking.

    ``corrupted`` latches when an overflow is *not* trapped — modelling
    the paper's observation that ML-DSA signing silently corrupted the
    SM's 8 KB stack until the allocation was raised to 128 KB.
    """

    size_bytes: int
    guard: bool = True
    depth: int = 0
    high_water: int = 0
    corrupted: bool = False
    _frames: list = field(default_factory=list)

    def push_frame(self, frame_bytes: int) -> None:
        if frame_bytes < 0:
            raise ValueError("negative frame size")
        self.depth += frame_bytes
        self._frames.append(frame_bytes)
        self.high_water = max(self.high_water, self.depth)
        if self.depth > self.size_bytes:
            if self.guard:
                raise StackOverflowFault(
                    f"stack overflow: {self.depth} B used of "
                    f"{self.size_bytes} B", self.depth, self.size_bytes)
            self.corrupted = True

    def pop_frame(self) -> None:
        if not self._frames:
            raise RuntimeError("pop from empty stack")
        self.depth -= self._frames.pop()


class Hart:
    """One core of the simulated SoC.

    All memory traffic goes through :meth:`load` / :meth:`store` /
    :meth:`fetch`, which consult the hart's PMP with the current
    privilege mode — exactly the enforcement point Keystone and the
    PMP-hardened FreeRTOS rely on.
    """

    def __init__(self, hart_id: int, memory: PhysicalMemory):
        self.hart_id = hart_id
        self.memory = memory
        self.pmp = Pmp()
        self.mode = PrivilegeMode.MACHINE
        self.stack = StackModel(8 * 1024)
        self.trap_log = []

    # -- privilege ----------------------------------------------------------

    def drop_to(self, mode: PrivilegeMode) -> None:
        """mret/sret-style transition to a less privileged mode."""
        if mode > self.mode:
            raise PermissionError(
                f"cannot raise privilege from {self.mode.name} to "
                f"{mode.name} without a trap")
        self.mode = mode

    def trap(self, cause: str) -> None:
        """Enter M-mode, recording the cause (ecall, access fault, ...)."""
        if PERF.enabled:
            PERF.inc("soc.cpu.traps")
        self.trap_log.append((cause, self.mode))
        self.mode = PrivilegeMode.MACHINE

    # -- PMP-checked memory access -------------------------------------

    def _checked(self, address: int, size: int, access: str) -> None:
        if not self.pmp.check(address, size, access, self.mode):
            raise AccessFault(
                f"PMP denies {access} at {address:#x} (+{size}) in "
                f"{self.mode.name} mode", address=address, access=access)

    def load(self, address: int, size: int) -> bytes:
        if PERF.enabled:
            PERF.inc("soc.cpu.loads")
        self._checked(address, size, "read")
        return self.memory.read(address, size)

    def store(self, address: int, data: bytes) -> None:
        if PERF.enabled:
            PERF.inc("soc.cpu.stores")
        self._checked(address, len(data), "write")
        self.memory.write(address, data)

    def fetch(self, address: int, size: int = 4) -> bytes:
        if PERF.enabled:
            PERF.inc("soc.cpu.instructions")
        self._checked(address, size, "exec")
        data = self.memory.read(address, size)
        if FAULTS.enabled:
            data = FAULTS.corrupt("soc.cpu.fetch", data)
        return data

    # -- stack-aware call simulation -------------------------------------

    def run_with_stack(self, function, frame_bytes: int, *args, **kwargs):
        """Run ``function`` charging ``frame_bytes`` against this hart's
        stack, propagating :class:`StackOverflowFault` if guarded.

        An injected instruction-skip fault (clock/voltage glitch model)
        suppresses the call entirely and yields None — callers that
        validate their results observe a missing value, not a wrong one.
        """
        if FAULTS.enabled:
            spec = FAULTS.fire("soc.cpu.exec")
            if spec is not None and spec.model == INSTRUCTION_SKIP:
                return None
        self.stack.push_frame(frame_bytes)
        try:
            return function(*args, **kwargs)
        finally:
            self.stack.pop_frame()
