"""The standard fault-campaign scenario suite.

Each scenario is one end-to-end workload from the paper's stack —
measured boot + attestation, attested payload delivery, the PMP-hardened
RTOS (and its flat baseline), and the shared SoC fabric — with its
fault surface declared as :class:`~repro.faults.campaign.FaultPoint`
grids.  The hardened scenarios are the acceptance bar: every fault
fired into them must be masked, detected or recovered; the flat RTOS
baseline is deliberately unhardened and *demonstrates* the
silent-corruption class the PMP port eliminates.

This module imports the production subsystems, which in turn import
:mod:`repro.faults.injector` for their hook sites — so it must never be
imported from ``repro.faults.__init__`` (see the lazy import in
:func:`~repro.faults.campaign.standard_campaign`).
"""

from __future__ import annotations

from ..crypto.keccak import sha3_256, sha3_512, shake256
from ..rtos.kernel import Kernel
from ..rtos.task import Delay
from ..soc.bus import SharedBus, TdmArbiter, Transaction
from ..soc.cpu import Hart
from ..soc.memory import PhysicalMemory, default_memory_map
from ..tee.attestation import verify_report
from ..tee.bootrom import BootRom
from ..tee.delivery import (AttestedPublisher, DeliveryChannel,
                            EnclaveKemIdentity)
from ..tee.device import Device
from ..tee.enclave import Enclave
from ..tee.platform import build_tee, synthetic_sm_binary
from ..tee.sm import KeystoneConfig, SecurityMonitor
from .campaign import FaultPoint, Scenario
from .models import (BIT_FLIP, BUS_CORRUPT, BUS_DELAY, BUS_DROP,
                     INSTRUCTION_SKIP, STACK_SMASH, TASK_BIT_FLIP,
                     TRANSPORT_CORRUPT, TRANSPORT_DELAY, TRANSPORT_DROP,
                     WILD_STORE)

_ENCLAVE_BINARY = shake256(b"fault-campaign-enclave", 4096)


class BootAttestScenario(Scenario):
    """Measured boot → SM → enclave attestation → remote verification.

    Hardened end to end: the verifier pins the golden SM measurement
    and enclave measurement, the bootrom verifies its own hand-off
    (fail closed), and the SM's signatures are checked remotely — so a
    corrupted SM image, measurement, boot signature, certificate,
    attestation signature or smashed SM stack must all surface as a
    verification failure, never as an accepted report.
    """

    name = "boot-attest"
    hardened = True

    def __init__(self):
        # The device is immutable and its construction ticks no PERF
        # counter, so one serves every run.
        self.device = Device(bytes(32))
        self.sm_binary = synthetic_sm_binary()
        self.expected_sm_hash = sha3_512(self.sm_binary)
        self.expected_enclave_hash = Enclave.measure(_ENCLAVE_BINARY)

    def fault_points(self) -> tuple:
        return (
            FaultPoint("soc.memory.write", BIT_FLIP, bits=4096),
            FaultPoint("soc.memory.read", BIT_FLIP, bits=4096),
            FaultPoint("tee.bootrom.measure", BIT_FLIP, triggers=2,
                       bits=512),
            FaultPoint("tee.bootrom.sign", BIT_FLIP, triggers=2,
                       bits=512),
            FaultPoint("tee.sm.sign", BIT_FLIP, bits=512),
            FaultPoint("tee.sm.stack", STACK_SMASH,
                       magnitudes=(8 * 1024, 16 * 1024)),
        )

    def execute(self) -> dict:
        device = self.device
        bootrom = BootRom(device)
        memory = PhysicalMemory(default_memory_map())
        hart = Hart(0, memory)
        dram = memory.memory_map["dram"]
        memory.write(dram.base, self.sm_binary)          # write visit 0
        loaded = memory.read(dram.base, len(self.sm_binary))
        verified = bootrom.boot_verified(loaded)
        if not verified.ok:
            return {"status": "detected",
                    "reason": verified.fault.reason,
                    "detail": verified.fault.detail}
        sm = SecurityMonitor(hart, memory, verified.report, dram,
                             KeystoneConfig())
        enclave = sm.create_enclave(_ENCLAVE_BINARY)
        report = sm.attest_enclave(enclave, b"fault-campaign")
        if not verify_report(report, device.public_identity(),
                             expected_enclave_hash=enclave.measurement,
                             expected_sm_hash=self.expected_sm_hash):
            return {"status": "detected",
                    "reason": "attestation-verification-failed"}
        if enclave.measurement != self.expected_enclave_hash:
            return {"status": "detected",
                    "reason": "enclave-measurement-mismatch"}
        return {"status": "ok",
                "digest": sha3_256(report.encode()).hex()}


class DeliveryScenario(Scenario):
    """Attested payload delivery over a faultable transport.

    The verified platform is built once (fault-free); each run drives
    the hardened :class:`~repro.tee.delivery.DeliveryChannel` across
    the wire.  Transient drops/corruption cost retries and *recover*;
    persistent faults fail closed within the channel's attempt/deadline
    budget.  AEAD authentication makes a silently wrong payload
    impossible.
    """

    name = "attested-delivery"
    hardened = True

    PAYLOAD = shake256(b"fault-campaign-model-weights", 2048)

    def __init__(self):
        platform = build_tee()
        enclave = platform.sm.create_enclave(_ENCLAVE_BINARY)
        self.enclave_kem = EnclaveKemIdentity(
            seed_d=shake256(b"fault-campaign-kem-d", 32),
            seed_z=shake256(b"fault-campaign-kem-z", 32))
        report = platform.sm.attest_enclave(
            enclave, self.enclave_kem.report_binding())
        self.report_bytes = report.encode()
        self.publisher = AttestedPublisher(
            platform.device.public_identity(),
            expected_sm_hash=platform.boot_report.sm_measurement,
            expected_enclave_hash=enclave.measurement)

    def fault_points(self) -> tuple:
        return (
            FaultPoint("tee.delivery.transport", TRANSPORT_DROP,
                       triggers=2),
            FaultPoint("tee.delivery.transport", TRANSPORT_DROP,
                       count=8),
            FaultPoint("tee.delivery.transport", TRANSPORT_CORRUPT,
                       triggers=2, bits=4096),
            FaultPoint("tee.delivery.transport", TRANSPORT_DELAY,
                       magnitudes=(4, 100)),
        )

    def execute(self) -> dict:
        channel = DeliveryChannel(self.publisher, self.enclave_kem)
        outcome = channel.deliver(self.report_bytes, self.PAYLOAD,
                                  label=b"model-weights")
        if not outcome.ok:
            return {"status": "detected",
                    "reason": outcome.fault.reason,
                    "detail": outcome.fault.detail}
        return {"status": "ok",
                "digest": sha3_256(outcome.payload).hex(),
                "recovered": outcome.recovered}


def _worker(pattern: bytes, results: list):
    """Task body: write a pattern to the task's data region, read it
    back through the PMP-checked path, and publish a checksum."""

    def entry(ctx):
        region = ctx.task.data_regions[0]
        ctx.store(region.base, pattern)
        yield Delay(1)
        readback = ctx.load(region.base, len(pattern))
        results.append((ctx.task.name, sha3_256(readback).hex()))
        yield Delay(1)

    return entry


class RtosScenario(Scenario):
    """Two worker tasks under the RTOS kernel, faults fired into the
    running tasks.

    ``protected=True`` (hardened): a wild store into kernel memory is
    PMP-trapped and confined to the faulting task; a smashed task stack
    is caught by the overflow check — the system keeps running and the
    kernel's containment counters tick.  ``protected=False`` is the
    flat-memory baseline: the same wild store lands in kernel memory
    and the run is (correctly) classified as silent corruption.
    """

    def __init__(self, protected: bool):
        self.protected = protected
        self.name = "rtos-protected" if protected else "rtos-flat"
        self.hardened = protected

    def fault_points(self) -> tuple:
        points = [
            FaultPoint("rtos.kernel.task", WILD_STORE, triggers=6,
                       bits=1024),
            FaultPoint("rtos.kernel.task", STACK_SMASH, triggers=6),
        ]
        if not self.protected:
            points.append(FaultPoint("rtos.kernel.task", TASK_BIT_FLIP,
                                     triggers=6, bits=2048))
        return tuple(points)

    def execute(self) -> dict:
        memory = PhysicalMemory(default_memory_map())
        hart = Hart(0, memory)
        kernel = Kernel(memory, hart, protected=self.protected)
        sentinel = shake256(b"kernel-heap-sentinel", 64)
        memory.write(kernel.kernel_region.base, sentinel)
        results = []
        kernel.create_task("worker-a", 2,
                           _worker(shake256(b"payload-a", 256), results),
                           data_bytes=4096)
        kernel.create_task("worker-b", 1,
                           _worker(shake256(b"payload-b", 256), results),
                           data_bytes=4096)
        kernel.run(max_ticks=40)
        if kernel.stats.contained_faults:
            survivors = [t.name for t in kernel.alive_tasks()
                         if t.state.name != "DONE"]
            return {"status": "detected", "reason": "fault-contained",
                    "detail": f"contained="
                              f"{kernel.stats.contained_faults} "
                              f"blocked-survivors={len(survivors)}"}
        # Hash a window that covers every wild-store offset the fault
        # grid can produce (bits=1024), so a landed store is never
        # missed by the integrity check.
        kernel_image = memory.read(kernel.kernel_region.base, 2048)
        witness = b"".join(
            name.encode() + bytes.fromhex(digest)
            for name, digest in sorted(results))
        return {"status": "ok",
                "digest": sha3_256(kernel_image + witness).hex()}


class SocFabricScenario(Scenario):
    """Shared TDM bus traffic plus a PMP-checked compute step.

    End-to-end integrity comes from protocol-level checks a real
    fabric has: the sender counts completions (a dropped transaction is
    a detected loss), payload ECC flags corrupted transactions, the
    drained-bus watchdog converts a wedged transaction (an injected
    delay that can never fit its TDM slot run) into a detected fault,
    fetched instruction words are ECC-checked against the stored image,
    and a skipped call yields a missing — not wrong — result.
    """

    name = "soc-fabric"
    hardened = True

    PROGRAM = shake256(b"fabric-program", 32)

    def fault_points(self) -> tuple:
        return (
            FaultPoint("soc.bus.submit", BUS_DROP, triggers=4),
            FaultPoint("soc.bus.submit", BUS_CORRUPT, triggers=4),
            FaultPoint("soc.bus.submit", BUS_DELAY, triggers=4,
                       magnitudes=(1, 4)),
            FaultPoint("soc.cpu.fetch", BIT_FLIP, bits=256),
            FaultPoint("soc.cpu.exec", INSTRUCTION_SKIP),
        )

    def execute(self) -> dict:
        bus = SharedBus(TdmArbiter(["a", "a", "b", "b"]))
        submitted = 0
        for cycle in range(8):
            bus.submit(Transaction("a", issued_cycle=cycle,
                                   tag=("a", cycle)))
            bus.submit(Transaction("b", issued_cycle=cycle,
                                   tag=("b", cycle)))
            submitted += 2
        try:
            completed = bus.run_until_drained(max_cycles=512)
        except RuntimeError:
            return {"status": "detected", "reason": "watchdog-timeout"}
        if len(completed) != submitted:
            return {"status": "detected", "reason": "transaction-lost",
                    "detail": f"completed {len(completed)} of "
                              f"{submitted}"}
        if any(t.corrupted for t in completed):
            return {"status": "detected", "reason": "payload-ecc"}
        memory = PhysicalMemory(default_memory_map())
        hart = Hart(0, memory)
        bootrom_region = memory.memory_map["bootrom"]
        memory.write(bootrom_region.base, self.PROGRAM)
        word = hart.fetch(bootrom_region.base, len(self.PROGRAM))
        if word != self.PROGRAM:
            return {"status": "detected", "reason": "fetch-ecc"}
        checksum = hart.run_with_stack(
            lambda: sha3_256(word).hex(), 256)
        if checksum is None:
            return {"status": "detected", "reason": "exec-skipped"}
        # The architectural result is the *set* of served requests;
        # completion order is timing, which composability already
        # handles — hashing it would misclassify a benign 1-cycle
        # delay as corruption.
        served = b"".join(str(tag).encode()
                          for tag in sorted(t.tag for t in completed))
        return {"status": "ok",
                "digest": sha3_256(served + checksum.encode()).hex()}


def standard_scenarios() -> tuple:
    """The suite :func:`repro.faults.campaign.standard_campaign` runs."""
    return (BootAttestScenario(), DeliveryScenario(),
            RtosScenario(protected=True), RtosScenario(protected=False),
            SocFabricScenario())
