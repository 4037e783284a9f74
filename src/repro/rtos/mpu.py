"""PMP context management for the hardened kernel.

Paper Section III-D: SiFive's RISC-V FreeRTOS port "was minimal, only
protecting the task stack and placing task code in an unprivileged
area without inter-task protection".  The improved version reproduced
here installs a *per-task* PMP view on every context switch: the
running task sees exactly its own stack and data regions (plus an MMIO
grant if the kernel gave it one), and nothing else — neither the
kernel, nor any other task.

A ``flat`` policy is provided as the insecure baseline (the classic
flat-memory FreeRTOS model) so the attack scenarios can be compared.
"""

from __future__ import annotations

from ..soc.memory import Region
from ..soc.pmp import AddressMode, PmpEntry, PrivilegeMode


def _napot_cover(region: Region) -> tuple:
    """Smallest NAPOT (base, size) covering a region.

    Kernel allocations are already power-of-two aligned, so this is
    normally exact; it exists to fail loudly if they ever are not.
    """
    size = 8
    while size < region.size:
        size <<= 1
    if region.base % size:
        raise ValueError(
            f"region {region.name} at {region.base:#x} not alignable "
            f"to {size:#x}")
    return region.base, size


class TaskMemoryProtection:
    """Programs the hart's PMP for each scheduling decision."""

    # Entry allocation: 0..5 task regions, 6 MMIO (cleared: no task is
    # granted the peripherals), 15 flat allow.
    TASK_ENTRIES = range(0, 6)
    MMIO_ENTRY = 6
    FLAT_ENTRY = 15

    def __init__(self, hart, protected: bool = True):
        self.hart = hart
        self.protected = protected
        if not protected:
            # Flat model: one all-permissive entry over the whole
            # physical address space; tasks can touch anything.
            self.hart.pmp.set_entry(self.FLAT_ENTRY, PmpEntry(
                mode=AddressMode.TOR, readable=True, writable=True,
                executable=True, address=(1 << 34) >> 2))

    def install(self, task) -> None:
        """Switch the PMP view to ``task`` (no-op in the flat model)."""
        if not self.protected:
            return
        entries = list(self.TASK_ENTRIES)
        regions = task.regions()
        if len(regions) > len(entries):
            raise ValueError(f"task {task.name} has too many regions")
        for index in entries:
            self.hart.pmp.clear_entry(index)
        for index, region in zip(entries, regions):
            base, size = _napot_cover(region)
            self.hart.pmp.set_napot(index, base, size, readable=True,
                                    writable=True)
        self.hart.pmp.clear_entry(self.MMIO_ENTRY)

    def enter_task_mode(self) -> None:
        self.hart.drop_to(PrivilegeMode.USER)

    def enter_kernel_mode(self) -> None:
        self.hart.trap("syscall")
