"""Real-time + TEE integration — the paper's central open challenge.

Section II-C: "Combining real-time constraints and Trusted Execution
Environments (TEEs) is non-trivial ... Nesting a TEE inside a real-time
system breaks the security guarantees of the TEE.  Conversely, nesting
a real-time system inside a TEE breaks any real-time guarantees, as the
TEE may (unintentionally) inhibit the scheduling.  A customized
solution is therefore required."

This module makes all three configurations executable:

* :func:`tee_inside_rtos` — the enclave is just an RTOS task.  PMP
  isolates tasks from *each other*, but the kernel (with machine-level
  driver code) remains in the TCB and reads the "enclave" secret at
  will: **security broken, deadlines met**.
* :func:`rtos_inside_tee` — the whole RTOS runs inside one enclave
  under a classic security monitor.  When the SM performs a heavyweight
  service (an ML-DSA attestation, hundreds of microseconds with the
  core unavailable), the RTOS is blacked out and its deadlines are
  missed: **security kept, real time broken**.
* :func:`convolve_integration` — the customized solution: the SM
  carves *locked* PMP entries around real-time enclave tasks (the
  RISC-V L bit makes the denial bind even machine-mode driver code),
  while scheduling authority stays with the RTOS and SM services are
  executed as a budgeted kernel task that the scheduler preempts like
  any other: **security and deadlines both hold**.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import ed25519
from ..soc.cpu import Hart
from ..soc.memory import AccessFault
from ..soc.pmp import PrivilegeMode
from ..rtos.kernel import Kernel
from ..rtos.task import Delay

SECRET = b"enclave-model-key"

#: Ticks one ML-DSA attestation occupies the core in the naive design
#: (tens of thousands of cycles at SoC clocks; scaled to kernel ticks).
SM_SERVICE_TICKS = 120

#: Deadline of the real-time control loop in ticks.
CONTROL_DEADLINE = 60


@dataclass
class IntegrationOutcome:
    """What one configuration achieves."""

    name: str
    security_preserved: bool
    deadlines_met: bool
    detail: str = ""

    @property
    def viable(self) -> bool:
        return self.security_preserved and self.deadlines_met


def _control_loop():
    """A periodic control task (5 iterations, period 8): misses its
    deadline if starved."""
    def entry(ctx):
        for _ in range(5):
            yield Delay(8)
            yield                     # one tick of computation
    return entry


def _secret_holder(secret_address):
    def entry(ctx):
        ctx.store(secret_address, SECRET)
        for _ in range(40):
            yield
    return entry


def tee_inside_rtos() -> IntegrationOutcome:
    """Naive nesting #1: the 'enclave' is an ordinary (PMP-protected)
    RTOS task; the kernel stays in the TCB."""
    kernel = Kernel(protected=True)
    holder = kernel.create_task("enclave-task", 3,
                                entry=lambda ctx: iter(()),
                                data_bytes=4096)
    secret_address = holder.data_regions[0].base
    holder.entry = _secret_holder(secret_address)
    control = kernel.create_task("control", 5, _control_loop(),
                                 deadline_ticks=CONTROL_DEADLINE)
    kernel.run(8)                      # let the secret be written
    # A malicious or buggy kernel driver runs with machine privilege:
    # task-level PMP views do not bind M-mode (no locked entries).
    stolen = kernel.hart.load(secret_address, len(SECRET))
    kernel.run(200)
    return IntegrationOutcome(
        name="TEE inside RTOS",
        security_preserved=stolen != SECRET,
        deadlines_met=not control.deadline_missed,
        detail="kernel-level code read the enclave secret"
               if stolen == SECRET else "")


def rtos_inside_tee() -> IntegrationOutcome:
    """Naive nesting #2: the RTOS lives in one enclave; the SM's own
    services stall the core for unbounded stretches."""
    kernel = Kernel(protected=True)
    holder = kernel.create_task("enclave-task", 3,
                                entry=lambda ctx: iter(()),
                                data_bytes=4096)
    secret_address = holder.data_regions[0].base
    holder.entry = _secret_holder(secret_address)
    control = kernel.create_task("control", 5, _control_loop(),
                                 deadline_ticks=CONTROL_DEADLINE)
    # The SM preempts the *whole* RTOS (it is one enclave to the SM):
    # nothing schedules while the monitor signs an attestation.
    kernel.run(10)
    signature = ed25519.sign(bytes(32), b"attestation-payload")
    kernel.tick += SM_SERVICE_TICKS        # the core is the SM's
    kernel.run(200)
    # Security holds: the (untrusted) OS outside the enclave cannot
    # reach in.  The SM's blackout view on the OS core leaves no PMP
    # entry matching enclave memory, so the S-mode access is denied.
    outside_core = Hart(1, kernel.memory)
    outside_core.drop_to(PrivilegeMode.SUPERVISOR)
    try:
        outside_core.load(secret_address, len(SECRET))
        outside_reads = True
    except AccessFault:
        outside_reads = False
    return IntegrationOutcome(
        name="RTOS inside TEE",
        security_preserved=not outside_reads and len(signature) == 64,
        deadlines_met=not control.deadline_missed,
        detail=f"SM service stalled the RTOS for {SM_SERVICE_TICKS} "
               f"ticks" if control.deadline_missed else "")


def convolve_integration() -> IntegrationOutcome:
    """The customized solution: locked PMP carve-outs for real-time
    enclave tasks + SM services as budgeted, preemptible kernel work."""
    kernel = Kernel(protected=True, budget_window=50)
    holder = kernel.create_task("rt-enclave", 3,
                                entry=lambda ctx: iter(()),
                                data_bytes=4096)
    secret_address = holder.data_regions[0].base
    holder.entry = _secret_holder(secret_address)
    control = kernel.create_task("control", 5, _control_loop(),
                                 deadline_ticks=CONTROL_DEADLINE)
    kernel.run(8)                      # secret written
    # The SM locks the enclave task's data region: the L bit binds the
    # denial even for machine-mode kernel/driver code, removing the
    # kernel from the enclave's TCB while the scheduler keeps running.
    region = holder.data_regions[0]
    kernel.hart.pmp.set_napot(12, region.base, region.size,
                              locked=True)

    def sm_service(ctx):
        # The attestation is chopped into scheduler-visible slices: a
        # budgeted low-priority task instead of an uninterruptible
        # monitor call.
        for _ in range(SM_SERVICE_TICKS):
            yield
        ed25519.sign(bytes(32), b"attestation-payload")

    kernel.create_task("sm-service", 1, sm_service, budget_ticks=25)
    kernel.run(500)
    sm_done = any(e.kind == "done" and e.task == "sm-service"
                  for e in kernel.events)
    # Machine-mode driver attack fails against the locked entry: only
    # the enclave task's own scheduled context (U-mode, its PMP view)
    # ever opens the region; kernel code running in any other context
    # hits the locked denial.
    try:
        kernel.hart.load(secret_address, len(SECRET))
        machine_reads = True
    except AccessFault:
        machine_reads = False
    return IntegrationOutcome(
        name="CONVOLVE integration",
        security_preserved=not machine_reads,
        deadlines_met=not control.deadline_missed and sm_done,
        detail="locked PMP carve-out + budgeted SM service")


def evaluate_all() -> list:
    """Run the three configurations; only the customized one is viable."""
    return [tee_inside_rtos(), rtos_inside_tee(),
            convolve_integration()]
