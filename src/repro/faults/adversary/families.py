"""Adversary families: seeded hostile inputs fired at the real stack.

Each :class:`AdversaryFamily` owns one attack surface from the paper's
stack and turns an op sequence (generated/mutated by its
:class:`~repro.faults.adversary.mutators.OpSpace`) into one end-to-end
run against the *production* subsystems — no mocks, the same objects
the standard fault scenarios drive:

* :class:`BootImageAdversary` — mutated/truncated/bit-flipped SM
  images fed to :class:`~repro.tee.bootrom.BootRom` under a pinned
  golden measurement (the remote-verifier role);
* :class:`TaskProgramAdversary` — generated RTOS task programs that
  probe PMP boundaries (wild stores into kernel memory,
  privilege-boundary reads, peer-region stores, MMIO pokes, stack
  smashes) under the hardened kernel, plus the flat-memory baseline
  that *demonstrates* the corruption class;
* :class:`DeliveryReplayAdversary` — per-attempt transport scripts
  (drop/corrupt/delay/truncate and **replay** of an AEAD-valid package
  recorded from an earlier delivery session) against the hardened
  :class:`~repro.tee.delivery.DeliveryChannel`;
* :class:`BusTransactionAdversary` — transaction storms, un-slottable
  latencies and slotless requestors against the TDM-arbitered
  :class:`~repro.soc.bus.SharedBus`.

A family is deterministic end to end: :meth:`~AdversaryFamily.execute`
is a pure function of the case, :meth:`~AdversaryFamily.golden` is a
cheap pure oracle for what a *correct* hardened system must produce
(``None`` meaning "an ok status is itself the defect"), and
:func:`classify_case` maps the pair onto the PR 2 outcome taxonomy.
Like the scenario module, this imports the production subsystems and
must never be imported from ``repro.faults.__init__``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ...obs.coverage import signature
from ...obs.perf import PERF
from ...rtos.kernel import Kernel
from ...rtos.task import Delay
from ...soc.bus import SharedBus, TdmArbiter, Transaction
from ...soc.cpu import Hart
from ...soc.memory import PhysicalMemory, default_memory_map
from ...tee.bootrom import BootRom
from ...tee.delivery import (AttestedPublisher, DeliveryChannel,
                             EnclaveKemIdentity)
from ...tee.device import Device
from ...tee.platform import build_tee
from ...crypto.mlkem import ML_KEM_512
from ..models import flip_bit
from ..report import ACCEPTABLE_ON_HARDENED, Outcome
from .mutators import (BOOT_OPS, BUS_OPS, DELIVERY_OPS,
                       HOSTILE_TASK_OPS, TASK_OPS,
                       UNSERVICEABLE_BUS_OPS, apply_boot_ops,
                       boot_base_image, filler, ops_from_json,
                       ops_to_json)

def _sha3(data: bytes) -> str:
    """Harness digest (uninstrumented: see the mutators docstring)."""
    return hashlib.sha3_256(data).hexdigest()


@dataclass(frozen=True)
class AdversaryCase:
    """One generated adversary: a family name, the seed that produced
    it, its mutation generation and the canonical op sequence.  The
    dedup/corpus key deliberately excludes seed and generation — two
    seeds deriving the same ops are the same attack."""

    family: str
    seed: int
    generation: int
    ops: tuple

    def key(self) -> tuple:
        return (self.family, self.ops)

    def with_ops(self, ops) -> "AdversaryCase":
        return AdversaryCase(self.family, self.seed, self.generation,
                             tuple(ops))

    def to_record(self) -> dict:
        return {"family": self.family, "seed": self.seed,
                "generation": self.generation,
                "ops": ops_to_json(self.ops)}

    @classmethod
    def from_record(cls, payload: dict) -> "AdversaryCase":
        return cls(family=payload["family"], seed=int(payload["seed"]),
                   generation=int(payload.get("generation", 0)),
                   ops=ops_from_json(payload["ops"]))


@dataclass
class CaseRecord:
    """One classified adversary run (plain picklable data)."""

    case: AdversaryCase
    outcome: str
    reason: str = ""
    detail: str = ""
    digest: str = ""
    signature: tuple = ()

    def to_record(self) -> dict:
        record = self.case.to_record()
        record.update(outcome=self.outcome, reason=self.reason,
                      detail=self.detail, digest=self.digest,
                      signature=[list(pair) for pair in self.signature])
        return record


class AdversaryFamily:
    """Base class: seeded generation/mutation over an op space.

    Subclasses supply the family-specific pair ``execute(case)`` (the
    observed result dict) and ``golden(case)`` (the digest a correct
    system must produce, or ``None`` when reaching ``status="ok"`` at
    all is the defect)."""

    name = "adversary"
    hardened = True
    op_space = None
    #: Relative share of fresh candidates a campaign plans for this
    #: family (cheap surfaces carry the bulk of a 10^5 budget).
    weight = 1
    max_ops = 8

    def generate(self, seed: int) -> AdversaryCase:
        """A fresh case: a pure function of ``seed``."""
        rng = random.Random(seed)
        return AdversaryCase(self.name, seed, 0,
                             self.op_space.ops(rng, self.max_ops))

    def mutate(self, case: AdversaryCase, seed: int) -> AdversaryCase:
        """One neighborhood mutation of ``case``: a pure function of
        ``(case.ops, seed)``."""
        rng = random.Random(seed)
        return AdversaryCase(
            self.name, seed, case.generation + 1,
            self.op_space.mutate(case.ops, rng, self.max_ops))


# -- boot images ---------------------------------------------------------

class BootImageAdversary(AdversaryFamily):
    """Mutated SM images against measured boot + a pinning verifier.

    The bootrom happily measures and signs *any* image — the defense
    is the remote verifier pinning the golden measurement, so every
    mutated image must surface as ``sm-measurement-mismatch`` (or an
    earlier fail-closed boot fault).  Ops that cancel out (an even
    number of flips of one bit) reproduce the pristine image and are
    masked.  The image is a small synthetic binary so one boot costs
    hashing 4 KiB, not the production 192 KiB."""

    name = "adv-boot-image"
    op_space = BOOT_OPS
    weight = 2
    max_ops = 6

    def __init__(self):
        self._bootrom = BootRom(Device(bytes(32)))
        self._base = boot_base_image()
        self._pinned = hashlib.sha3_512(self._base).digest()
        verified = self._bootrom.boot_verified(self._base)
        if not verified.ok:                       # pragma: no cover
            raise RuntimeError("pristine boot failed: "
                               f"{verified.fault}")
        self._golden_digest = _sha3(verified.report.encode())

    def execute(self, case: AdversaryCase) -> dict:
        image = apply_boot_ops(self._base, case.ops)
        verified = self._bootrom.boot_verified(image)
        if not verified.ok:
            return {"status": "detected",
                    "reason": verified.fault.reason,
                    "detail": verified.fault.detail}
        if verified.report.sm_measurement != self._pinned:
            return {"status": "detected",
                    "reason": "sm-measurement-mismatch"}
        return {"status": "ok",
                "digest": _sha3(verified.report.encode())}

    def golden(self, case: AdversaryCase):
        if apply_boot_ops(self._base, case.ops) == self._base:
            return self._golden_digest
        return None                   # a mutated image must never pass


# -- RTOS task programs --------------------------------------------------

class TaskProgramAdversary(AdversaryFamily):
    """Generated task programs probing PMP boundaries and kernel
    memory.

    Two tasks are built from the op sequence (op ``task`` parameter
    parity selects the victim), each op one tick: in-region
    stores/loads are the honest workload; ``kstore``/``kload``/
    ``peer``/``mmio`` cross a privilege or isolation boundary and
    ``smash`` overruns the task stack.  Under the hardened kernel
    every hostile op must be contained (``fault-contained``); the flat
    baseline lets wild stores land in the kernel sentinel window —
    the silent-corruption class the PMP port removes."""

    op_space = TASK_OPS
    _SENTINEL = filler(128, tag=3)

    def __init__(self, protected: bool = True):
        self.protected = protected
        self.name = ("adv-task-program" if protected
                     else "adv-task-flat")
        self.hardened = protected
        self.weight = 5 if protected else 2
        self._pristine_digest = _sha3(self._SENTINEL)

    def _entry(self, kernel, mmio, ops):
        def entry(ctx):
            for op in ops:
                kind = op[0]
                if kind == "store":
                    region = ctx.task.data_regions[0]
                    length = op[3]
                    offset = op[2] % (region.size - length)
                    ctx.store(region.base + offset,
                              filler(length, tag=op[2]))
                elif kind == "load":
                    region = ctx.task.data_regions[0]
                    length = op[3]
                    offset = op[2] % (region.size - length)
                    ctx.load(region.base + offset, length)
                elif kind == "delay":
                    yield Delay(op[2])
                    continue
                elif kind == "kstore":
                    ctx.store(kernel.kernel_region.base + op[2],
                              b"\xad")
                elif kind == "kload":
                    ctx.load(kernel.kernel_region.base + op[2], 8)
                elif kind == "peer":
                    peers = [t for t in kernel.tasks
                             if t is not ctx.task and t.data_regions]
                    region = peers[0].data_regions[0]
                    ctx.store(region.base + op[2] % (region.size - 1),
                              b"\xee")
                elif kind == "mmio":
                    ctx.store(mmio.base + op[2], b"\x01")
                elif kind == "smash":
                    # Guaranteed overrun whatever the stack size.
                    ctx.push_stack(ctx.task.stack_region.size
                                   + op[2] * 1024)
                yield Delay(1)
        return entry

    def execute(self, case: AdversaryCase) -> dict:
        memory = PhysicalMemory(default_memory_map())
        hart = Hart(0, memory)
        kernel = Kernel(memory, hart, protected=self.protected)
        memory.write(kernel.kernel_region.base, self._SENTINEL)
        mmio = memory.memory_map["mmio"]
        for index in (0, 1):
            ops = [op for op in case.ops if op[1] % 2 == index]
            kernel.create_task(f"adv-{index}", 2 - index,
                               self._entry(kernel, mmio, ops),
                               data_bytes=4096)
        kernel.run(max_ticks=64)
        if kernel.stats.contained_faults:
            return {"status": "detected", "reason": "fault-contained",
                    "detail": f"contained="
                              f"{kernel.stats.contained_faults}"}
        window = memory.read(kernel.kernel_region.base,
                             len(self._SENTINEL))
        return {"status": "ok", "digest": _sha3(window)}

    def golden(self, case: AdversaryCase):
        hostile = any(op[0] in HOSTILE_TASK_OPS for op in case.ops)
        if hostile and self.protected:
            return None               # must be contained, never "ok"
        # Correct behaviour always preserves the kernel sentinel; the
        # flat baseline reaching "ok" with a landed wild store is
        # exactly the digest mismatch this oracle exposes.
        return self._pristine_digest


# -- delivery replay/rollback --------------------------------------------

_ENCLAVE_BINARY = filler(4096, tag=5)


class _ScriptedChannel(DeliveryChannel):
    """A delivery channel whose transport follows an adversary script:
    attempt ``i`` consumes op ``i`` (missing ops pass clean).  The
    last wire image is recorded so a *recording* adversary can replay
    it into a later channel."""

    def __init__(self, *args, script=(), stale: bytes = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._script = tuple(script)
        self._step = 0
        self._stale = stale
        self.last_wire = None

    def _transport(self, wire: bytes):
        self.last_wire = wire
        op = (self._script[self._step]
              if self._step < len(self._script) else ("pass",))
        self._step += 1
        delay = 1
        kind = op[0]
        if kind == "drop":
            return None, delay
        if kind == "corrupt":
            return flip_bit(wire, op[1] % (len(wire) * 8)), delay
        if kind == "delay":
            return wire, delay + op[1]
        if kind == "replay" and self._stale is not None:
            return self._stale, delay
        if kind == "truncate":
            return (wire[:-op[1]] if op[1] < len(wire) else b""), delay
        return wire, delay


class DeliveryReplayAdversary(AdversaryFamily):
    """Rollback/replay/reordering adversaries on the delivery wire.

    Construction records one AEAD-valid sealed package from an earlier
    delivery *session* (stale model weights).  Each case then scripts
    the live session's transport per attempt; the ``replay`` op
    substitutes the stale package for the real one.  The sequence- and
    session-bound wire labels must reject it (reason ``"replay"``) and
    recover on a later attempt — before that hardening, the stale
    payload decrypted cleanly and the run classified as silent
    corruption, which is how the fuzzer forced the fix."""

    name = "adv-delivery"
    op_space = DELIVERY_OPS
    weight = 1
    max_ops = 4

    PAYLOAD = filler(1024, tag=11)
    STALE_PAYLOAD = filler(1024, tag=12)

    def __init__(self):
        platform = build_tee()
        enclave = platform.sm.create_enclave(_ENCLAVE_BINARY)
        # The cheapest parameter set: the adversary fuzzes the channel
        # protocol, not the lattice arithmetic.
        self._kem = EnclaveKemIdentity(
            seed_d=filler(32, tag=21), seed_z=filler(32, tag=22),
            params=ML_KEM_512)
        report = platform.sm.attest_enclave(
            enclave, self._kem.report_binding())
        self._report_bytes = report.encode()
        self._publisher = AttestedPublisher(
            platform.device.public_identity(),
            expected_sm_hash=platform.boot_report.sm_measurement,
            expected_enclave_hash=enclave.measurement,
            params=ML_KEM_512)
        old = _ScriptedChannel(self._publisher, self._kem,
                               session=b"session-old")
        outcome = old.deliver(self._report_bytes, self.STALE_PAYLOAD,
                              label=b"weights")
        if not outcome.ok:                        # pragma: no cover
            raise RuntimeError(f"stale delivery failed: "
                               f"{outcome.fault}")
        self._stale_wire = old.last_wire
        self._golden_digest = _sha3(self.PAYLOAD)

    def execute(self, case: AdversaryCase) -> dict:
        channel = _ScriptedChannel(
            self._publisher, self._kem, session=b"session-live",
            script=case.ops, stale=self._stale_wire)
        outcome = channel.deliver(self._report_bytes, self.PAYLOAD,
                                  label=b"weights")
        if not outcome.ok:
            return {"status": "detected",
                    "reason": outcome.fault.reason,
                    "detail": outcome.fault.detail}
        return {"status": "ok", "digest": _sha3(outcome.payload),
                "recovered": outcome.recovered}

    def golden(self, case: AdversaryCase):
        return self._golden_digest    # only the live payload is right


# -- bus transaction storms ----------------------------------------------

class BusTransactionAdversary(AdversaryFamily):
    """Transaction adversaries against the TDM-arbitered shared bus.

    Honest storms (``tx``/``burst``) must drain completely; a
    transaction whose latency cannot fit any consecutive slot run
    (``wedge``) or a requestor owning no slot at all (``rogue``) can
    never be granted and must trip the drained-bus watchdog — a
    detected denial, never a hang or a lost transaction."""

    name = "adv-bus"
    op_space = BUS_OPS
    weight = 6
    max_ops = 10

    TABLE = ("a", "a", "b", "b")      # longest owner run: 2 slots
    REQUESTORS = ("a", "b")
    MAX_CYCLES = 512

    @classmethod
    def expand(cls, ops) -> list:
        """The pure ``(requestor, latency, tag)`` list an op sequence
        submits (shared by execute and the golden oracle)."""
        transactions = []
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "tx":
                transactions.append((cls.REQUESTORS[op[1]], op[2],
                                     ("tx", index, op[3])))
            elif kind == "burst":
                transactions.extend(
                    (cls.REQUESTORS[op[1]], 1, ("burst", index, k))
                    for k in range(op[2]))
            elif kind == "wedge":
                # Latency 3 > the longest run in TABLE: never fits.
                transactions.append((cls.REQUESTORS[op[1]], 3,
                                     ("wedge", index, op[2])))
            elif kind == "rogue":
                transactions.append(("z", 1, ("rogue", index, op[1])))
        return transactions

    @staticmethod
    def _digest(tags) -> str:
        return _sha3(str(sorted(tags)).encode())

    def execute(self, case: AdversaryCase) -> dict:
        transactions = self.expand(case.ops)
        bus = SharedBus(TdmArbiter(list(self.TABLE)))
        for cycle, (requestor, latency, tag) in \
                enumerate(transactions):
            bus.submit(Transaction(requestor, issued_cycle=cycle,
                                   latency=latency, tag=tag))
        try:
            completed = bus.run_until_drained(
                max_cycles=self.MAX_CYCLES)
        except RuntimeError:
            return {"status": "detected", "reason": "watchdog-timeout"}
        if len(completed) != len(transactions):
            return {"status": "detected", "reason": "transaction-lost",
                    "detail": f"completed {len(completed)} of "
                              f"{len(transactions)}"}
        if any(t.corrupted for t in completed):
            return {"status": "detected", "reason": "payload-ecc"}
        return {"status": "ok",
                "digest": self._digest([t.tag for t in completed])}

    def golden(self, case: AdversaryCase):
        if any(op[0] in UNSERVICEABLE_BUS_OPS for op in case.ops):
            return None               # must watchdog, never drain "ok"
        return self._digest(
            [tag for _, _, tag in self.expand(case.ops)])


def standard_families() -> tuple:
    """The family suite :class:`~repro.faults.adversary.campaign.
    AdversaryCampaign` fuzzes by default (construction order is the
    deterministic planning order)."""
    return (BusTransactionAdversary(), TaskProgramAdversary(True),
            TaskProgramAdversary(False), BootImageAdversary(),
            DeliveryReplayAdversary())


# -- classification / replay ---------------------------------------------

def classify_case(family, case: AdversaryCase, observed: dict,
                  crash: Exception) -> tuple:

    """Map one adversary run to ``(Outcome, reason, detail)``.

    Mirrors :func:`repro.faults.campaign.classify` with the golden
    oracle inverted into the family: ``golden(case) is None`` means an
    ``"ok"`` status is itself the violation (``unexpected-success``)."""
    if crash is not None:
        return (Outcome.CRASH, type(crash).__name__, str(crash)[:200])
    if observed.get("status") == "detected":
        return (Outcome.DETECTED, observed.get("reason", ""),
                observed.get("detail", ""))
    golden = family.golden(case)
    if golden is None:
        return (Outcome.SILENT_CORRUPTION, "unexpected-success",
                f"hostile input accepted, digest "
                f"{observed.get('digest', '')[:16]}")
    if observed.get("digest") == golden:
        if observed.get("recovered"):
            return (Outcome.RECOVERED,
                    observed.get("reason", "retry"), "")
        return (Outcome.MASKED, "", "")
    return (Outcome.SILENT_CORRUPTION, "digest-mismatch",
            f"got {observed.get('digest', '')[:16]} want "
            f"{golden[:16]}")


def run_case(family, case: AdversaryCase,
             with_vector: bool = False) -> CaseRecord:
    """Execute and classify one case; optionally capture its
    PERF-delta signature (the coverage novelty input), forcing the
    counter switch on for the run window exactly like the PR 2
    campaign runner."""
    if with_vector:
        perf_was = PERF.enabled
        PERF.enabled = True
        perf_before = PERF.snapshot()
    observed, crash = None, None
    try:
        observed = family.execute(case)
    except Exception as exc:          # crash class: nothing owned it
        crash = exc
    sig = ()
    if with_vector:
        sig = signature(PERF.snapshot() - perf_before)
        PERF.enabled = perf_was
    outcome, reason, detail = classify_case(family, case,
                                            observed or {}, crash)
    return CaseRecord(case=case, outcome=outcome.value, reason=reason,
                      detail=detail,
                      digest=(observed or {}).get("digest", ""),
                      signature=sig)


def acceptable_on_hardened(outcome: str) -> bool:
    return outcome in {o.value for o in ACCEPTABLE_ON_HARDENED}
