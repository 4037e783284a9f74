"""The fault-injection engine: spec semantics, hook sites, hardening.

Covers the ISSUE 2 tentpole contracts: the disarmed injector is a
strict no-op, every declared hook site fires deterministically, and the
hardened components (fail-closed boot, contained RTOS faults) react as
specified.
"""

import pytest

from repro.faults import FAULTS, FaultSpec, Outcome, flip_bit
from repro.faults.models import (BIT_FLIP, BUS_CORRUPT, BUS_DELAY,
                                 BUS_DROP, INSTRUCTION_SKIP,
                                 STACK_SMASH, TASK_BIT_FLIP,
                                 TRANSPORT_DROP, WILD_STORE)
from repro.rtos.kernel import Kernel
from repro.rtos.task import Delay, TaskState
from repro.soc.bus import FcfsArbiter, SharedBus, Transaction
from repro.soc.cpu import Hart
from repro.soc.memory import DRAM_BASE, PhysicalMemory
from repro.tee.bootrom import BootReport, BootRom
from repro.tee.device import Device
from repro.tee.platform import build_tee, synthetic_sm_binary

from helpers import injected


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with a disarmed global injector."""
    FAULTS.disarm()
    yield
    FAULTS.disarm()


class TestFaultSpec:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            FaultSpec("site", "melting")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FaultSpec("site", BIT_FLIP, trigger=-1)
        with pytest.raises(ValueError):
            FaultSpec("site", BIT_FLIP, count=0)


class TestFlipBit:
    def test_flips_exactly_one_bit(self):
        data = bytes(4)
        flipped = flip_bit(data, 9)
        assert flipped != data
        assert flip_bit(flipped, 9) == data
        assert flipped[1] == 0x02

    def test_bit_index_wraps(self):
        assert flip_bit(b"\x00", 8) == b"\x01"

    def test_empty_is_identity(self):
        assert flip_bit(b"", 3) == b""


class TestInjectorCore:
    def test_disarmed_is_identity(self):
        assert not FAULTS.enabled
        assert FAULTS.corrupt("any.site", b"abc") == b"abc"
        assert FAULTS.fire("any.site") is None

    def test_fires_only_in_trigger_window(self):
        FAULTS.arm(FaultSpec("s", BIT_FLIP, trigger=1, count=2, bit=0))
        outcomes = [FAULTS.corrupt("s", b"\x00") for _ in range(4)]
        assert outcomes == [b"\x00", b"\x01", b"\x01", b"\x00"]
        events = FAULTS.disarm()
        assert [e.visit for e in events] == [1, 2]

    def test_sites_are_independent(self):
        FAULTS.arm(FaultSpec("a", BIT_FLIP, bit=0))
        assert FAULTS.corrupt("b", b"\x00") == b"\x00"
        assert FAULTS.corrupt("a", b"\x00") == b"\x01"

    def test_corrupt_ignores_non_bitflip_models(self):
        FAULTS.arm(FaultSpec("s", BUS_DROP))
        assert FAULTS.corrupt("s", b"\x00") == b"\x00"
        assert FAULTS.disarm() == ()

    def test_injected_context_manager_always_disarms(self):
        with pytest.raises(RuntimeError):
            with injected(FaultSpec("s", BIT_FLIP)):
                raise RuntimeError("boom")
        assert not FAULTS.enabled

    def test_disarm_returns_and_clears_events(self):
        with injected(FaultSpec("s", BIT_FLIP, bit=3)):
            FAULTS.corrupt("s", b"\x00")
            assert len(FAULTS.events) == 1
        assert FAULTS.events == []


class TestMemoryHooks:
    def test_read_bit_flip_leaves_memory_intact(self):
        memory = PhysicalMemory()
        memory.write(DRAM_BASE, b"\x00\x00")
        with injected(FaultSpec("soc.memory.read", BIT_FLIP, bit=0)):
            assert memory.read(DRAM_BASE, 2) == b"\x01\x00"
        assert memory.read(DRAM_BASE, 2) == b"\x00\x00"

    def test_write_bit_flip_persists(self):
        memory = PhysicalMemory()
        with injected(FaultSpec("soc.memory.write", BIT_FLIP, bit=8)):
            memory.write(DRAM_BASE, b"\x00\x00")
        assert memory.read(DRAM_BASE, 2) == b"\x00\x01"


class TestBusHooks:
    def _bus(self):
        return SharedBus(FcfsArbiter())

    def test_drop_diverts_to_dropped(self):
        bus = self._bus()
        with injected(FaultSpec("soc.bus.submit", BUS_DROP)):
            bus.submit(Transaction("a", 0))
            bus.submit(Transaction("a", 0))
        assert len(bus.dropped) == 1
        assert len(bus.run_until_drained()) == 1

    def test_corrupt_marks_transaction(self):
        bus = self._bus()
        with injected(FaultSpec("soc.bus.submit", BUS_CORRUPT)):
            bus.submit(Transaction("a", 0))
        (done,) = bus.run_until_drained()
        assert done.corrupted

    def test_delay_stretches_latency(self):
        bus = self._bus()
        with injected(FaultSpec("soc.bus.submit", BUS_DELAY,
                                magnitude=5)):
            bus.submit(Transaction("a", 0))
        (done,) = bus.run_until_drained()
        assert done.latency == 6

    def test_cycle_budget_watchdog_pins_runtime_error(self):
        """The cycle budget is the only liveness guard left after the
        dead idle-cycles path was removed — pin it."""
        bus = self._bus()
        bus.submit(Transaction("a", 0, latency=100))
        with pytest.raises(RuntimeError, match="cycle budget"):
            bus.run_until_drained(max_cycles=10)


class TestCpuHooks:
    def test_instruction_skip_returns_none(self):
        hart = Hart(0, PhysicalMemory())
        with injected(FaultSpec("soc.cpu.exec", INSTRUCTION_SKIP)):
            assert hart.run_with_stack(lambda: 42, 100) is None
        assert hart.run_with_stack(lambda: 42, 100) == 42
        assert hart.stack.depth == 0

    def test_fetch_bit_flip(self):
        memory = PhysicalMemory()
        hart = Hart(0, memory)
        memory.write(DRAM_BASE, bytes(4))
        with injected(FaultSpec("soc.cpu.fetch", BIT_FLIP, bit=0)):
            assert hart.fetch(DRAM_BASE) == b"\x01\x00\x00\x00"


class TestBootHardening:
    SM_BINARY = synthetic_sm_binary()

    def _bootrom(self):
        return BootRom(Device(bytes(32)))

    def test_boot_verified_ok_without_faults(self):
        verified = self._bootrom().boot_verified(self.SM_BINARY)
        assert verified.ok
        assert verified.fault is None
        assert isinstance(verified.report, BootReport)

    @pytest.mark.parametrize("trigger", [0, 1])
    def test_measurement_flip_fails_closed(self, trigger):
        bootrom = self._bootrom()
        with injected(FaultSpec("tee.bootrom.measure", BIT_FLIP,
                                trigger=trigger, bit=13)):
            verified = bootrom.boot_verified(self.SM_BINARY)
        assert not verified.ok
        assert verified.report is None
        assert verified.fault.outcome is Outcome.DETECTED
        assert verified.fault.reason == "boot-verification-failed"

    def test_boot_signature_flip_fails_closed(self):
        bootrom = self._bootrom()
        with injected(FaultSpec("tee.bootrom.sign", BIT_FLIP, bit=7)):
            verified = bootrom.boot_verified(self.SM_BINARY)
        assert not verified.ok

class TestSmHooks:
    def test_sm_signature_flip_breaks_verification(self):
        from repro.tee import verify_report
        platform = build_tee()
        enclave = platform.sm.create_enclave(b"\x42" * 64)
        with injected(FaultSpec("tee.sm.sign", BIT_FLIP, bit=99)):
            report = platform.sm.attest_enclave(enclave)
        assert not verify_report(report,
                                 platform.device.public_identity(),
                                 expected_enclave_hash=enclave
                                 .measurement)

    def test_stack_smash_corrupts_signature(self):
        from repro.tee import verify_report
        platform = build_tee()            # 8 KB guard-less SM stack
        enclave = platform.sm.create_enclave(b"\x42" * 64)
        with injected(FaultSpec("tee.sm.stack", STACK_SMASH,
                                magnitude=8 * 1024)):
            report = platform.sm.attest_enclave(enclave)
        assert platform.sm.stack.corrupted
        assert not verify_report(report,
                                 platform.device.public_identity(),
                                 expected_enclave_hash=enclave
                                 .measurement)


def _poke_task(results):
    def entry(ctx):
        region = ctx.task.data_regions[0]
        ctx.store(region.base, b"\xaa" * 32)
        yield Delay(1)
        results.append(ctx.load(region.base, 32))
        yield Delay(1)
    return entry


class TestKernelFaultContainment:
    def _kernel(self, protected):
        memory = PhysicalMemory()
        return Kernel(memory, Hart(0, memory), protected=protected)

    def test_wild_store_contained_when_protected(self):
        kernel = self._kernel(protected=True)
        results = []
        kernel.create_task("victim", 1, _poke_task(results),
                           data_bytes=4096)
        kernel.create_task("bystander", 1, _poke_task(results),
                           data_bytes=4096)
        with injected(FaultSpec("rtos.kernel.task", WILD_STORE,
                                trigger=0, bit=5)):
            kernel.run(max_ticks=30)
        assert kernel.stats.injected_faults == 1
        assert kernel.stats.contained_faults == 1
        assert [t.state for t in kernel.tasks].count(TaskState.FAULTED) == 1
        # The other task ran to completion: containment, not collapse.
        done = [t for t in kernel.tasks if t.state is TaskState.DONE]
        assert len(done) == 1

    def test_wild_store_lands_when_flat(self):
        kernel = self._kernel(protected=False)
        base = kernel.kernel_region.base
        kernel.memory.write(base, bytes(64))
        results = []
        kernel.create_task("victim", 1, _poke_task(results),
                           data_bytes=4096)
        with injected(FaultSpec("rtos.kernel.task", WILD_STORE,
                                trigger=0, bit=5)):
            kernel.run(max_ticks=30)
        assert kernel.stats.contained_faults == 0
        assert kernel.memory.read(base + 5, 1) == b"\xfb"

    def test_injected_stack_smash_is_contained(self):
        kernel = self._kernel(protected=True)
        results = []
        kernel.create_task("victim", 1, _poke_task(results),
                           data_bytes=4096)
        with injected(FaultSpec("rtos.kernel.task", STACK_SMASH)):
            kernel.run(max_ticks=30)
        assert kernel.stats.contained_faults == 1
        (faulted,) = [t for t in kernel.tasks
                      if t.state is TaskState.FAULTED]
        assert faulted.name == "victim"

    def test_task_bit_flip_corrupts_task_data(self):
        kernel = self._kernel(protected=True)
        results = []
        kernel.create_task("victim", 1, _poke_task(results),
                           data_bytes=4096)
        with injected(FaultSpec("rtos.kernel.task", TASK_BIT_FLIP,
                                trigger=1, bit=3)):
            kernel.run(max_ticks=30)
        (readback,) = results
        assert readback != b"\xaa" * 32


class TestDefaultNoOp:
    def test_tier1_paths_identical_with_injector_imported(self):
        """The acceptance criterion: importing repro.faults and running
        an unmodified workload changes nothing."""
        baseline = build_tee().boot_report.encode()
        assert not FAULTS.enabled
        assert build_tee().boot_report.encode() == baseline
