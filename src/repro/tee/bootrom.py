"""The measured-boot ROM: image layout and first-stage boot flow.

Paper Section III-B: "we modified the SoC bootrom to perform a
measurement of the SM located in DRAM, sign the measurement hash with a
unique device key currently stored in the bootrom, and derive key
material for the SM to use for its own signing operations".

Two concerns live here:

1. **Image layout** — the bootrom is real bytes (sections with
   deterministic filler content), so the Table III size comparison is a
   measurement of a serialized artifact, not a constant.  Section sizes
   are calibrated to the paper's Keystone bootrom (50.7 KB default);
   the PQ additions (ML-DSA signing code + a 32-byte stored seed
   instead of a 2560-byte key) grow it to 60.2 KB.
2. **Boot flow** — measure the SM image, sign the measurement with the
   device key(s), derive the SM's signing key material, and hand off.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..faults.injector import FAULTS
from ..faults.report import FaultReport, Outcome
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..crypto import ed25519
from ..crypto.keccak import sha3_512, shake256
from ..crypto.kdf import derive_seed_pair
from ..crypto.mldsa import MLDSA
from ..runtime.memo import Memo, bypassed
from .attestation import sm_certificate_payload
from .device import Device

# SM-image measurements, keyed on the exact image bytes.  A fault
# campaign measures each loaded image twice per boot (boot side and
# verify side) and the golden image in almost every run.  Only the hash
# is memoized: the ``tee.bootrom.measurements`` tick and the
# ``tee.bootrom.measure`` fault hook of :meth:`BootRom.measure` run on
# every call, outside it, so an injected fault still lands and the memo
# needs no bypass.  Each entry pins its image (192 KiB for the
# platform's SM), so the memo is small.
MEASUREMENT_MEMO = Memo(maxsize=4)

# Measured-boot cache.  Boot is deterministic in the device identity,
# the ROM section layout and the SM image, so a repeat boot can replay
# the stored hand-off instead of re-running two signatures and (in the
# PQ configuration) an ML-DSA key regeneration.  It is keyed on the
# exact tuple of those parts, with the image as its SHA3-512 digest so
# that no entry pins an image.  It is a process-wide memo, so hits
# replay the build's PERF delta (the counter contract in
# ``repro.runtime.memo``).  It is never consulted or populated while
# fault injection is armed (an injection scenario must re-measure and
# re-sign for its faults to land) or while a telemetry subscriber is
# active (timed spans cannot be replayed, so traced boots always show
# the real span tree).
_BOOT_MEMO = Memo(maxsize=64)


def _image_digest(sm_binary: bytes) -> bytes:
    """SHA3-512 of the SM image through :data:`MEASUREMENT_MEMO`: no
    PERF tick and no fault hook (those are :meth:`BootRom.measure`'s)."""
    image = bytes(sm_binary)
    return MEASUREMENT_MEMO.get_or_build(image, lambda: sha3_512(image))


@dataclass(frozen=True)
class RomSection:
    """A named bootrom image section with deterministic filler bytes."""

    name: str
    size: int

    def content(self) -> bytes:
        return shake256(b"bootrom-section:" + self.name.encode(),
                        self.size)


# Sizes calibrated against the Keystone bootrom the paper measures
# (Table III: 50.7 KB default).  1 KB = 1024 bytes throughout.
DEFAULT_SECTIONS = (
    RomSection("header", 653),
    RomSection("boot_code", 33 * 1024),
    RomSection("sha3_code", 6 * 1024),
    RomSection("ed25519_code", 11 * 1024),
    RomSection("device_ed25519_keys", 64),
)

# The PQ additions: size-optimised ML-DSA-44 signing code plus the
# 32-byte stored seed (the full 2560-byte secret key is deliberately NOT
# stored — it is regenerated during boot) and hybrid hand-off glue.
PQ_EXTRA_SECTIONS = (
    RomSection("mldsa_code", 9 * 1024),
    RomSection("device_mldsa_seed", 32),
    RomSection("hybrid_handoff_code", 480),
)


@dataclass
class BootReport:
    """Everything the bootrom hands to the security monitor.

    The device key never leaves the bootrom; instead the bootrom leaves
    behind *certificates* (``sm_cert_*``) over the SM's derived
    attestation public keys, which the SM embeds in every attestation
    report.
    """

    sm_measurement: bytes
    classical_boot_signature: bytes
    pq_boot_signature: bytes          # empty in the default configuration
    sm_ed25519_seed: bytes
    sm_mldsa_seed: bytes              # empty in the default configuration
    sm_ed25519_public: bytes = b""
    sm_mldsa_public: bytes = b""
    sm_cert_classical: bytes = b""
    sm_cert_pq: bytes = b""
    regenerated_pq_key_bytes: int = 0  # secret-key bytes expanded from
                                       # the stored 32-byte seed

    # -- byte-level encoding (length-prefixed, self-delimiting) --------

    MAGIC = b"BRPT1"

    def encode(self) -> bytes:
        """Serialize the hand-off: magic, then every byte field with a
        4-byte big-endian length prefix, then the regeneration count."""
        parts = [self.MAGIC]
        for name in self._byte_fields():
            value = getattr(self, name)
            parts.append(len(value).to_bytes(4, "big"))
            parts.append(value)
        parts.append(self.regenerated_pq_key_bytes.to_bytes(4, "big"))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "BootReport":
        """Parse :meth:`encode` output; raises ``ValueError`` on any
        malformed input (bad magic, truncation, trailing bytes)."""
        if data[:len(cls.MAGIC)] != cls.MAGIC:
            raise ValueError("bad boot-report magic")
        offset = len(cls.MAGIC)

        def take(n):
            nonlocal offset
            chunk = data[offset:offset + n]
            if len(chunk) != n:
                raise ValueError("truncated boot report")
            offset += n
            return chunk

        values = {}
        for name in cls._byte_fields():
            length = int.from_bytes(take(4), "big")
            if length > len(data):
                raise ValueError("boot-report field length too large")
            values[name] = take(length)
        values["regenerated_pq_key_bytes"] = int.from_bytes(take(4),
                                                            "big")
        if offset != len(data):
            raise ValueError("trailing bytes after boot report")
        return cls(**values)

    @classmethod
    def _byte_fields(cls) -> tuple:
        return tuple(f.name for f in fields(cls) if f.type == "bytes")


@dataclass
class VerifiedBoot:
    """Outcome of :meth:`BootRom.boot_verified`: either a verified
    :class:`BootReport` or a fail-closed
    :class:`~repro.faults.report.FaultReport` — never both, never an
    exception."""

    report: BootReport
    fault: FaultReport

    @property
    def ok(self) -> bool:
        return self.report is not None


class BootRom:
    """The immutable first-stage boot loader."""

    def __init__(self, device: Device):
        self.device = device
        sections = list(DEFAULT_SECTIONS)
        if device.post_quantum:
            sections.extend(PQ_EXTRA_SECTIONS)
        self.sections = tuple(sections)

    def image(self) -> bytes:
        """The serialized ROM image (what Table III measures)."""
        return b"".join(section.content() for section in self.sections)

    @property
    def image_size(self) -> int:
        return sum(section.size for section in self.sections)

    def measure(self, sm_binary: bytes) -> bytes:
        """SHA3-512 measurement of the SM image in DRAM.  The hash comes
        from :data:`MEASUREMENT_MEMO`; the PERF tick and the fault hook
        run on every call."""
        if PERF.enabled:
            PERF.inc("tee.bootrom.measurements")
        measurement = _image_digest(sm_binary)
        if FAULTS.enabled:
            measurement = FAULTS.corrupt("tee.bootrom.measure",
                                         measurement)
        return measurement

    def _sign_device(self, message: bytes) -> bytes:
        """Device-key Ed25519 signing, with the fault hook that models
        a glitched signing engine."""
        if PERF.enabled:
            PERF.inc("tee.bootrom.device_signs")
        signature = self.device.sign_classical(message)
        if FAULTS.enabled:
            signature = FAULTS.corrupt("tee.bootrom.sign", signature)
        return signature

    def _boot_cache_key(self, sm_binary: bytes) -> tuple:
        """Key of one deterministic boot: device identity, section
        layout and the SM image's digest (not a measurement: it ticks
        no PERF counter)."""
        device = self.device
        return (device.ed25519_seed,
                device.mldsa_seed or b"",
                device.mldsa_params.name if device.post_quantum else "",
                self.sections,
                _image_digest(sm_binary))

    def boot(self, sm_binary: bytes) -> BootReport:
        """Run the measured-boot sequence and produce the SM hand-off.

        The sequence is deterministic, so repeat boots of the same
        (device, layout, image) triple are served from a cache whose
        hits replay the original boot's PERF delta.  The sequence runs
        fault hook sites and timed spans, so the cache follows the
        bypass rule of :func:`repro.runtime.memo.bypassed`: armed FAULTS
        or active telemetry run the real measure/sign sequence.
        """
        if bypassed():
            return self._boot(sm_binary)
        return BootReport.decode(_BOOT_MEMO.get_or_build(
            self._boot_cache_key(sm_binary),
            lambda: self._boot(sm_binary).encode()))

    def _boot(self, sm_binary: bytes) -> BootReport:
        """The real measured-boot sequence.

        The signatures cover the measurement and bind it to this device;
        SM signing seeds are derived from the device secret *and* the
        measurement, so a tampered SM gets unrelated keys.
        """
        if PERF.enabled:
            PERF.inc("tee.bootrom.boots")
        with TELEMETRY.span("tee.boot",
                            post_quantum=self.device.post_quantum):
            with TELEMETRY.span("tee.boot.measure",
                                sm_bytes=len(sm_binary)):
                measurement = self.measure(sm_binary)
            with TELEMETRY.span("tee.boot.sign", scheme="ed25519"):
                classical_sig = self._sign_device(
                    b"keystone-boot-v1" + measurement)
            pq_sig = b""
            regenerated = 0
            device_pq_secret = None
            if self.device.post_quantum:
                # Regenerate the ML-DSA key pair from the stored 32-byte
                # seed — the bootrom-size mitigation from the paper.
                with TELEMETRY.span("tee.boot.regenerate_pq_key"):
                    scheme = MLDSA(self.device.mldsa_params)
                    _, device_pq_secret = scheme.key_gen(
                        self.device.mldsa_seed)
                regenerated = len(device_pq_secret)
                with TELEMETRY.span("tee.boot.sign", scheme="mldsa"):
                    pq_sig = scheme.sign(
                        device_pq_secret,
                        b"keystone-boot-v1" + measurement)
            # Derive the SM's attestation seeds from the device secret
            # and the measurement, then certify the derived public keys.
            with TELEMETRY.span("tee.boot.derive_sm_keys"):
                sm_secret = self.device.derive_sm_secret(measurement)
                sm_ed_seed, sm_mldsa_seed = derive_seed_pair(sm_secret,
                                                             "sm-keys")
                sm_ed_public = ed25519.public_key(sm_ed_seed)
                sm_mldsa_public = b""
                if self.device.post_quantum:
                    scheme = MLDSA(self.device.mldsa_params)
                    sm_mldsa_public, _ = scheme.key_gen(sm_mldsa_seed)
            with TELEMETRY.span("tee.boot.certify"):
                cert_payload = sm_certificate_payload(
                    measurement, sm_ed_public, sm_mldsa_public)
                cert_classical = self._sign_device(cert_payload)
                cert_pq = b""
                if self.device.post_quantum:
                    cert_pq = MLDSA(self.device.mldsa_params).sign(
                        device_pq_secret, cert_payload)
            return BootReport(
            sm_measurement=measurement,
            classical_boot_signature=classical_sig,
            pq_boot_signature=pq_sig,
            sm_ed25519_seed=sm_ed_seed,
            sm_mldsa_seed=(sm_mldsa_seed if self.device.post_quantum
                           else b""),
            sm_ed25519_public=sm_ed_public,
            sm_mldsa_public=sm_mldsa_public,
            sm_cert_classical=cert_classical,
            sm_cert_pq=cert_pq,
            regenerated_pq_key_bytes=regenerated,
        )

    def boot_verified(self, sm_binary: bytes) -> "VerifiedBoot":
        """Measured boot with fail-closed verification.

        Runs :meth:`boot` followed by :meth:`verify_boot` and *never*
        lets a raw exception or an unverified report escape: any
        failure — a corrupted measurement, a glitched signature, an
        error thrown mid-boot — degrades gracefully to a
        :class:`VerifiedBoot` carrying a machine-readable
        :class:`~repro.faults.report.FaultReport` and no boot report.
        """
        try:
            report = self.boot(sm_binary)
        except Exception as exc:          # fail closed, report the cause
            if AUDIT.enabled:
                AUDIT.emit("tee.boot", "boot-rejected",
                           severity="critical", reason="boot-exception")
            return VerifiedBoot(report=None, fault=FaultReport(
                component="tee.bootrom", outcome=Outcome.DETECTED,
                reason="boot-exception",
                detail=f"{type(exc).__name__}: {exc}"[:200]))
        try:
            verified = self.verify_boot(sm_binary, report)
        except Exception as exc:
            if AUDIT.enabled:
                AUDIT.emit("tee.boot", "boot-rejected",
                           severity="critical",
                           reason="verify-exception")
            return VerifiedBoot(report=None, fault=FaultReport(
                component="tee.bootrom", outcome=Outcome.DETECTED,
                reason="verify-exception",
                detail=f"{type(exc).__name__}: {exc}"[:200]))
        if not verified:
            if AUDIT.enabled:
                AUDIT.emit("tee.boot", "boot-rejected",
                           severity="critical",
                           reason="boot-verification-failed")
            return VerifiedBoot(report=None, fault=FaultReport(
                component="tee.bootrom", outcome=Outcome.DETECTED,
                reason="boot-verification-failed"))
        if AUDIT.enabled:
            AUDIT.emit("tee.boot", "boot-verified",
                       post_quantum=self.device.post_quantum)
        return VerifiedBoot(report=report, fault=None)

    def verify_boot(self, sm_binary: bytes, report: BootReport) -> bool:
        """Verifier-side check of the boot signatures (both must hold in
        the PQ configuration — the hybrid rule)."""
        with TELEMETRY.span("tee.boot.verify",
                            post_quantum=self.device.post_quantum):
            return self._verify_boot(sm_binary, report)

    def _verify_boot(self, sm_binary: bytes, report: BootReport) -> bool:
        measurement = self.measure(sm_binary)
        if measurement != report.sm_measurement:
            return False
        message = b"keystone-boot-v1" + measurement
        if not ed25519.verify(self.device.ed25519_public, message,
                              report.classical_boot_signature):
            return False
        if self.device.post_quantum:
            # Cached verifier context for the (fixed) device ML-DSA key.
            try:
                verifier = MLDSA(self.device.mldsa_params).verifier(
                    self.device.mldsa_public)
            except ValueError:
                return False
            return verifier.verify(message, report.pq_boot_signature)
        return not report.pq_boot_signature
