"""Virtual Execution Platforms (VEPs).

Paper Section III-E: "A key concept of the CompSOC platform is the
Virtual Execution Environment (VEP) that creates a predefined subset of
hardware that isolates a user application from all other applications
on the shared hardware.  The VEP design inherently provides security in
a similar way to a TEE as all resources are protected from
interference."

A VEP owns (a) a set of TDM slots on the shared interconnect and (b) a
private memory region.  Applications run *inside* a VEP and can only
use its resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..soc.memory import Region


class VepViolation(Exception):
    """An application touched resources outside its VEP."""


@dataclass
class VirtualExecutionPlatform:
    """One isolated hardware slice."""

    name: str
    memory: Region
    slot_count: int                      # TDM slots per table revolution
    applications: list = field(default_factory=list)

    def __post_init__(self):
        if self.slot_count < 1:
            raise ValueError("a VEP needs at least one TDM slot")

    def attach(self, application) -> None:
        application.vep = self
        self.applications.append(application)

    def check_access(self, address: int) -> None:
        """Raise :class:`VepViolation` unless the one-byte access at
        ``address`` stays inside this VEP's memory region."""
        if not self.memory.contains(address, 1):
            raise VepViolation(
                f"{self.name}: access at {address:#x} escapes "
                f"region [{self.memory.base:#x}, {self.memory.end:#x})")


@dataclass
class Application:
    """A workload: an alternating sequence of compute and memory phases.

    ``phases`` is a list of ``("compute", ticks)`` and
    ``("mem", address)`` entries.  Memory phases issue one transaction
    on the shared interconnect and stall until it completes — the
    feedback loop through which co-runner interference would propagate
    on a non-composable platform.
    """

    name: str
    phases: list
    vep: VirtualExecutionPlatform = None

    def __post_init__(self):
        for phase in self.phases:
            if phase[0] not in ("compute", "mem"):
                raise ValueError(f"unknown phase kind {phase[0]!r}")
            if phase[0] == "compute" and phase[1] < 0:
                raise ValueError("negative compute duration")


def periodic_workload(name: str, compute_ticks: int, requests: int,
                      base_address: int) -> Application:
    """A classic streaming workload: compute then fetch (64 bytes past
    the last fetch), repeated."""
    stride = 64

    phases = []
    for index in range(requests):
        if compute_ticks:
            phases.append(("compute", compute_ticks))
        phases.append(("mem", base_address + index * stride))
    return Application(name, phases)
