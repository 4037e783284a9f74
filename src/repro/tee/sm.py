"""The Keystone-style security monitor (SM).

The SM runs in M-mode, owns the PMP, and implements the TEE:

* it walls off its own memory from the OS and from enclaves,
* it creates enclaves in PMP-isolated DRAM regions and context-switches
  the PMP when entering/leaving them,
* it signs attestation reports with keys derived at boot (Section III-B),
* it derives per-enclave sealing keys.

The paper's stack-size finding is modelled mechanically: every signing
operation charges its stack frame against the SM's per-core stack
(default 8 KB, no guard page).  ML-DSA's working set silently corrupts
that stack — reproduce with ``KeystoneConfig(stack_bytes=8 * 1024)`` —
until it is raised to 128 KB as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import ed25519
from ..crypto.mldsa import ML_DSA_44, MLDSA, MLDSAParams
from ..faults.injector import FAULTS
from ..faults.models import STACK_SMASH
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..soc.cpu import Hart, StackModel
from ..soc.memory import PhysicalMemory, Region
from ..soc.pmp import PmpEntry, PrivilegeMode
from .attestation import AttestationReport
from .bootrom import BootReport
from .enclave import Enclave, EnclaveState
from .sealing import derive_sealing_key

#: Measured stack demand of an Ed25519 signing call (C implementation).
ED25519_SIGNING_STACK = 4 * 1024

DEFAULT_SM_STACK = 8 * 1024          # Keystone default (Table III)
PQ_SM_STACK = 128 * 1024             # the paper's stopgap fix

SM_REGION_SIZE = 2 * 1024 * 1024     # SM code + data carve-out
ENCLAVE_REGION_SIZE = 1024 * 1024    # per-enclave DRAM slice

# PMP entry allocation plan.
_PMP_SM = 0                # SM self-protection (highest priority)
_PMP_ENCLAVE_BASE = 1      # one entry per live enclave
_PMP_ENCLAVE_COUNT = 8
_PMP_ALL_DRAM = 15         # lowest priority: OS default access


@dataclass
class KeystoneConfig:
    """Build-time configuration of the SM (the Table III knobs)."""

    post_quantum: bool = False
    stack_bytes: int = DEFAULT_SM_STACK
    mldsa_params: MLDSAParams = ML_DSA_44


class SecurityMonitor:
    """The M-mode trusted computing base."""

    def __init__(self, hart, memory: PhysicalMemory,
                 boot_report: BootReport, dram: Region,
                 config: KeystoneConfig = None):
        # ``hart`` may be a single Hart or a list (the paper's SoC has
        # four Rocket cores); PMP is a per-hart structure, so the SM
        # must program every core's registers coherently.
        self.harts = list(hart) if isinstance(hart, (list, tuple)) \
            else [hart]
        self.hart = self.harts[0]
        self.memory = memory
        self.boot_report = boot_report
        self.config = config or KeystoneConfig()
        if self.config.post_quantum and not boot_report.sm_mldsa_seed:
            raise ValueError("PQ-enabled SM requires a PQ boot report")
        # Per-core SM stacks: no guard page, like the deployment the
        # paper debugged — overflow corrupts silently.  (Table III:
        # "SM stack size per core".)
        self.stacks = {h.hart_id: StackModel(self.config.stack_bytes,
                                             guard=False)
                       for h in self.harts}
        self.stack = self.stacks[self.hart.hart_id]
        self._mldsa = MLDSA(self.config.mldsa_params)
        # Attestation-key signing contexts, built with the first report
        # (:meth:`_unsigned_report`).
        self._sm_ed_signer = None
        self._sm_mldsa_signer = None
        self._dram = dram
        self._next_enclave_base = dram.base + SM_REGION_SIZE
        self._next_enclave_id = 1
        self.enclaves = {}
        self._running = None
        self._install_base_pmp()

    # -- PMP management -------------------------------------------------

    def _install_base_pmp(self) -> None:
        """SM self-protection + OS default access to the rest of DRAM,
        programmed identically on every core."""
        for hart in self.harts:
            pmp = hart.pmp
            pmp.set_napot(_PMP_SM, self._dram.base, SM_REGION_SIZE)
            # Lowest-priority catch-all: the OS may use all of DRAM;
            # the deny entries above it carve out the SM and the
            # enclaves.
            pmp.set_napot(_PMP_ALL_DRAM, self._dram.base,
                          self._dram.size, readable=True,
                          writable=True, executable=True)

    def _enclave_pmp_slot(self, enclave: Enclave) -> int:
        index = _PMP_ENCLAVE_BASE + (enclave.enclave_id - 1) \
            % _PMP_ENCLAVE_COUNT
        return index

    def _enter_os_context(self) -> None:
        """OS view on every core: live enclave memory is blacked out."""
        for hart in self.harts:
            for enclave in self.enclaves.values():
                if enclave.state is EnclaveState.DESTROYED:
                    continue
                hart.pmp.set_napot(self._enclave_pmp_slot(enclave),
                                   enclave.region.base,
                                   enclave.region.size)
        self._running = None

    def _enter_enclave_context(self, enclave: Enclave,
                               hart: Hart) -> None:
        """Enclave view on the executing core only: its own region is
        RWX, everything else in DRAM (other enclaves, the OS, the SM)
        stays blocked.  Every *other* core keeps the OS view, where
        this enclave's memory remains blacked out."""
        if PERF.enabled:
            PERF.inc("tee.sm.enclave_switches")
        hart.pmp.set_napot(self._enclave_pmp_slot(enclave),
                           enclave.region.base, enclave.region.size,
                           readable=True, writable=True,
                           executable=True)
        # Swap the catch-all from allow (OS) to deny (enclave): an
        # enclave must not see OS memory.
        hart.pmp.set_entry(_PMP_ALL_DRAM, PmpEntry())
        hart.pmp.set_napot(_PMP_ALL_DRAM - 1, self._dram.base,
                           self._dram.size)
        self._running = enclave

    def _leave_enclave_context(self, enclave: Enclave,
                               hart: Hart) -> None:
        hart.pmp.set_napot(self._enclave_pmp_slot(enclave),
                           enclave.region.base, enclave.region.size)
        hart.pmp.clear_entry(_PMP_ALL_DRAM - 1)
        hart.pmp.set_napot(_PMP_ALL_DRAM, self._dram.base,
                           self._dram.size, readable=True,
                           writable=True, executable=True)
        self._running = None

    # -- enclave lifecycle ----------------------------------------------

    def create_enclave(self, binary: bytes) -> Enclave:
        """Allocate, load and measure a new enclave."""
        if len(binary) > ENCLAVE_REGION_SIZE:
            raise ValueError("enclave binary exceeds region size")
        if len(self.enclaves) >= _PMP_ENCLAVE_COUNT:
            raise RuntimeError("out of PMP entries for enclaves")
        base = self._next_enclave_base
        if base + ENCLAVE_REGION_SIZE > self._dram.end:
            raise RuntimeError("out of enclave DRAM")
        self._next_enclave_base += ENCLAVE_REGION_SIZE
        region = Region(f"enclave{self._next_enclave_id}", base,
                        ENCLAVE_REGION_SIZE)
        enclave = Enclave(self._next_enclave_id, binary, region)
        self._next_enclave_id += 1
        self.memory.write(base, binary)
        self.enclaves[enclave.enclave_id] = enclave
        self._enter_os_context()
        return enclave

    def run_enclave(self, enclave: Enclave, workload, *args,
                    hart_id: int = None):
        """Execute ``workload(hart, *args)`` inside the enclave context.

        The chosen hart drops to U-mode with the enclave PMP view
        installed (every other core keeps the blackout view); any
        attempt by the workload to touch memory outside the enclave
        raises an ``AccessFault``, exactly as the hardware would.
        """
        self._require_live(enclave)
        hart = self.hart if hart_id is None else next(
            h for h in self.harts if h.hart_id == hart_id)
        enclave.mark_running()
        self._enter_enclave_context(enclave, hart)
        previous_mode = hart.mode
        hart.drop_to(PrivilegeMode.USER)
        try:
            return workload(hart, *args)
        finally:
            hart.trap("enclave-exit")
            hart.mode = previous_mode
            self._leave_enclave_context(enclave, hart)
            enclave.mark_stopped()

    def destroy_enclave(self, enclave: Enclave) -> None:
        """Wipe the enclave's memory and release its PMP entry."""
        self._require_live(enclave)
        self.memory.write(enclave.region.base,
                          bytes(enclave.region.size))
        enclave.mark_destroyed()
        for hart in self.harts:
            hart.pmp.clear_entry(self._enclave_pmp_slot(enclave))
        del self.enclaves[enclave.enclave_id]

    def _require_live(self, enclave: Enclave) -> None:
        if enclave.enclave_id not in self.enclaves:
            raise RuntimeError(f"unknown enclave {enclave.enclave_id}")

    # -- attestation -----------------------------------------------------

    def _sign_with_stack(self, signer, frame_bytes: int,
                         payload: bytes) -> bytes:
        """Run a signing routine charged against the SM stack.

        If the frame overflows the (guard-less) SM stack, the stack
        corrupts silently and the produced signature is garbage — the
        exact failure mode the paper hit with ML-DSA on the default
        8 KB stack.  An injected stack-smash fault inflates the frame
        by ``magnitude`` bytes (a glitched allocation), reproducing
        the same corruption on demand; an injected bit flip at
        ``tee.sm.sign`` models a glitched signing engine.
        """
        if PERF.enabled:
            PERF.inc("tee.sm.signs")
        if FAULTS.enabled:
            spec = FAULTS.fire("tee.sm.stack")
            if spec is not None and spec.model == STACK_SMASH:
                frame_bytes += max(1, spec.magnitude)
        self.stack.push_frame(frame_bytes)
        try:
            signature = signer(payload)
            if self.stack.corrupted:
                signature = bytes(b ^ 0xA5 for b in signature)
            if FAULTS.enabled:
                signature = FAULTS.corrupt("tee.sm.sign", signature)
            return signature
        finally:
            self.stack.pop_frame()

    def attest_enclave(self, enclave: Enclave,
                       report_data: bytes = b"") -> AttestationReport:
        """Produce the (default or PQ) attestation report for an enclave."""
        if PERF.enabled:
            PERF.inc("tee.sm.attestations")
        if AUDIT.enabled:
            AUDIT.emit("tee.sm", "attest-sign",
                       enclave=int(enclave.enclave_id),
                       post_quantum=self.config.post_quantum)
        with TELEMETRY.span("tee.attest",
                            enclave=enclave.enclave_id,
                            post_quantum=self.config.post_quantum):
            return self._attest_enclave(enclave, report_data)

    def _unsigned_report(self, enclave: Enclave,
                         report_data: bytes) -> AttestationReport:
        """``enclave``'s report before the SM signs it.  The first one
        also builds the SM's signing contexts, reused for every later
        report: the Ed25519 comb precomputation and the ML-DSA
        NTT-domain key expansion are paid once per SM instead of once
        per attestation."""
        boot = self.boot_report
        if self._sm_ed_signer is None:
            self._sm_ed_signer = ed25519.SigningKey(boot.sm_ed25519_seed)
            if self.config.post_quantum:
                _, secret = self._mldsa.key_gen(boot.sm_mldsa_seed)
                self._sm_mldsa_signer = self._mldsa.signer(secret)
        report = AttestationReport(
            enclave_hash=enclave.measurement,
            enclave_data=report_data,
            enclave_signature=b"",
            sm_hash=boot.sm_measurement,
            sm_ed25519_public=boot.sm_ed25519_public,
            sm_signature=boot.sm_cert_classical,
        )
        if self.config.post_quantum:
            report.sm_mldsa_public = boot.sm_mldsa_public
            report.sm_pq_signature = boot.sm_cert_pq
        return report

    def _attest_enclave(self, enclave: Enclave,
                        report_data: bytes) -> AttestationReport:
        self._require_live(enclave)
        report = self._unsigned_report(enclave, report_data)
        payload = report.enclave_payload()
        with TELEMETRY.span("tee.attest.sign", scheme="ed25519"):
            report.enclave_signature = self._sign_with_stack(
                self._sm_ed_signer.sign, ED25519_SIGNING_STACK, payload)
        if self.config.post_quantum:
            with TELEMETRY.span("tee.attest.sign", scheme="mldsa"):
                report.enclave_pq_signature = self._sign_with_stack(
                    self._sm_mldsa_signer.sign,
                    self._mldsa.signing_stack_bytes, payload)
        return report

    def attest_enclaves(self, enclaves, report_data=None) -> list:
        """Attest a batch of enclaves; entry *i* equals
        ``attest_enclave(enclaves[i], report_data[i])`` byte for byte.

        In the PQ configuration the ML-DSA signatures batch through the
        signer's ``sign_many`` rejection-loop kernel under a single SM
        stack frame (the per-call frames never coexist and are all the
        same size, so the corruption outcome is identical).  The scalar
        path is used whenever fault injection is armed — per-signature
        fault hooks must see every sign — or when batching cannot help
        (classical-only configuration, batches of one).
        """
        enclaves = list(enclaves)
        if report_data is None:
            data_list = [b""] * len(enclaves)
        elif isinstance(report_data, (bytes, bytearray)):
            data_list = [bytes(report_data)] * len(enclaves)
        else:
            data_list = [bytes(d) for d in report_data]
        if len(data_list) != len(enclaves):
            raise ValueError("report_data length mismatch")
        if FAULTS.enabled or not self.config.post_quantum \
                or len(enclaves) < 2:
            return [self.attest_enclave(e, d)
                    for e, d in zip(enclaves, data_list)]
        for enclave in enclaves:
            self._require_live(enclave)
        if PERF.enabled:
            PERF.inc("tee.sm.attestations", len(enclaves))
        if AUDIT.enabled:
            for enclave in enclaves:
                AUDIT.emit("tee.sm", "attest-sign",
                           enclave=int(enclave.enclave_id),
                           post_quantum=True)
        with TELEMETRY.span("tee.attest.batch", batch=len(enclaves),
                            post_quantum=True):
            reports = [self._unsigned_report(enclave, data)
                       for enclave, data in zip(enclaves, data_list)]
            payloads = [report.enclave_payload() for report in reports]
            with TELEMETRY.span("tee.attest.sign", scheme="ed25519"):
                for report, payload in zip(reports, payloads):
                    report.enclave_signature = self._sign_with_stack(
                        self._sm_ed_signer.sign, ED25519_SIGNING_STACK,
                        payload)
            with TELEMETRY.span("tee.attest.sign", scheme="mldsa",
                                batch=len(payloads)):
                if PERF.enabled:
                    PERF.inc("tee.sm.signs", len(payloads))
                self.stack.push_frame(self._mldsa.signing_stack_bytes)
                try:
                    signatures = self._sm_mldsa_signer.sign_many(
                        payloads)
                    if self.stack.corrupted:
                        signatures = [bytes(b ^ 0xA5 for b in s)
                                      for s in signatures]
                finally:
                    self.stack.pop_frame()
            for report, signature in zip(reports, signatures):
                report.enclave_pq_signature = signature
        return reports

    def attestation_requests(self, enclaves, report_data=None) -> list:
        """Wire-format attestation submissions for a batch of enclaves.

        The encoded-bytes shape a fleet device ships to an
        :class:`~repro.tee.service.AttestationService`: entry *i* is
        ``attest_enclaves(...)[i].encode()``.
        """
        return [report.encode()
                for report in self.attest_enclaves(enclaves,
                                                   report_data)]

    # -- sealing ----------------------------------------------------------

    def sealing_key(self, enclave: Enclave) -> bytes:
        """The sealing key for this (device, SM, enclave) triple.

        In the PQ configuration it mixes both SM secret hierarchies, per
        the paper: "derived from both the Ed25519 and the ML-DSA SM
        secret keys."
        """
        self._require_live(enclave)
        return derive_sealing_key(
            self.boot_report.sm_ed25519_seed, enclave.measurement,
            sm_pq_secret=self.boot_report.sm_mldsa_seed)
