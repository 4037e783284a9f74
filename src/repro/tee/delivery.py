"""Attested payload delivery: release secrets only to verified enclaves.

The paper's motivating TEE application (Section III-B): "ensure that
only a genuine, uncompromised devices get access to sensitive data such
as model weights or other sensitive data, and even then the data is
restricted to an enclave."

The construction combines the attestation chain with ML-KEM:

1. the enclave generates an ML-KEM-768 key pair and binds
   ``SHA3-256(ek)`` into its attestation report's data field,
2. the publisher verifies the full chain (device identity, pinned SM
   measurement, expected enclave measurement), checks that the offered
   encapsulation key matches the bound hash, encapsulates a session
   secret and AEAD-encrypts the payload under a key derived from it,
3. only the attested enclave can decapsulate and decrypt — a quantum
   adversary recording the exchange learns nothing (ML-KEM), and a
   classical MITM cannot swap the key (it is bound into the signed
   report).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.aes import open_aead, seal_aead
from ..crypto.kdf import derive_key
from ..crypto.keccak import sha3_256
from ..crypto.mlkem import ML_KEM_768, MLKEM, MLKEMParams
from ..faults.injector import FAULTS
from ..faults.models import (TRANSPORT_CORRUPT, TRANSPORT_DELAY,
                             TRANSPORT_DROP, flip_bit)
from ..faults.report import FaultReport, Outcome
from ..obs.audit import AUDIT
from .attestation import AttestationReport, verify_report

_BINDING_PREFIX = b"mlkem-ek-v1:"


class DeliveryError(ValueError):
    """A delivery step failed, with a machine-readable reason code.

    Subclasses ``ValueError`` so callers that treated unwrap failures
    as generic value errors keep working; new callers can dispatch on
    :attr:`reason` instead of parsing messages.  A
    :class:`DeliveryChannel` reports the same codes, plus the two only
    it can reach, as its outcome's fault reason.

    Reason codes:

    * ``"decaps"`` — the KEM ciphertext was malformed (wrong size,
      not a valid encapsulation for this key), or the enclave's
      decapsulation key fails its FIPS 203 hash check,
    * ``"auth"`` — AEAD authentication failed (tampered payload, or
      ML-KEM implicit rejection fed a garbage key into the KDF),
    * ``"package-decode"`` — the wire bytes are not a well-formed
      :class:`SealedPackage`,
    * ``"replay"`` — the package's label binding does not match the
      label this delivery expects: a replayed, rolled-back or
      cross-session package (a corrupted label field surfaces the
      same way — either case, the package is not the one this
      exchange produced),
    * ``"attestation-rejected"`` (channel only) — the publisher
      refused the report or key binding,
    * ``"transport-timeout"`` (channel only) — retries exhausted the
      channel's delivery deadline.
    """

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


class EnclaveKemIdentity:
    """Enclave-side: an ML-KEM key pair bound to attestation."""

    def __init__(self, seed_d: bytes = None, seed_z: bytes = None,
                 params: MLKEMParams = ML_KEM_768):
        self.params = params
        self._kem = MLKEM(params)
        self.ek, self._dk = self._kem.key_gen(seed_d, seed_z)

    def report_binding(self) -> bytes:
        """The value the enclave puts in its attestation report data
        (fits easily in the 1024-byte field)."""
        return _BINDING_PREFIX + sha3_256(self.ek)

    def unwrap(self, package: "SealedPackage",
               expected_label: bytes = None) -> bytes:
        """Decapsulate and decrypt a delivered payload.

        Raises :class:`DeliveryError` with reason ``"decaps"`` for a
        malformed KEM ciphertext and ``"auth"`` when AEAD opening
        fails — which is also how ML-KEM's implicit rejection
        surfaces: decapsulation of a tampered ciphertext silently
        yields an unrelated shared secret, and the derived key then
        fails authentication.

        ``expected_label`` pins the label the caller's protocol state
        says this package must carry (the :class:`DeliveryChannel`
        binds session and sequence number into it).  A mismatch
        raises reason ``"replay"`` *before* any cryptography runs:
        an AEAD-valid package from another delivery — a recorded
        session replayed, an old payload rolled back — is rejected
        outright instead of decrypting to stale plaintext.
        """
        if expected_label is not None \
                and package.label != expected_label:
            raise DeliveryError(
                "replay",
                f"package label {package.label!r} does not match "
                f"the expected binding {expected_label!r}")
        try:
            shared = self._kem.decaps(self._dk, package.kem_ciphertext)
        except ValueError as exc:
            raise DeliveryError("decaps", str(exc)) from exc
        key = derive_key(shared, "attested-delivery",
                         package.label)
        try:
            return open_aead(key, package.nonce, package.sealed_payload,
                             package.label)
        except ValueError as exc:
            raise DeliveryError("auth", str(exc)) from exc


@dataclass
class SealedPackage:
    """What the publisher sends to the device."""

    label: bytes
    kem_ciphertext: bytes
    nonce: bytes
    sealed_payload: bytes

    MAGIC = b"SPKG1"

    def encode(self) -> bytes:
        """Wire format: magic, then each field with a 4-byte
        big-endian length prefix."""
        parts = [self.MAGIC]
        for value in (self.label, self.kem_ciphertext, self.nonce,
                      self.sealed_payload):
            parts.append(len(value).to_bytes(4, "big"))
            parts.append(value)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "SealedPackage":
        """Parse :meth:`encode` output; raises :class:`DeliveryError`
        with reason ``"package-decode"`` on any malformed input."""
        if data[:len(cls.MAGIC)] != cls.MAGIC:
            raise DeliveryError("package-decode", "bad package magic")
        offset = len(cls.MAGIC)

        def take(n):
            nonlocal offset
            chunk = data[offset:offset + n]
            if len(chunk) != n:
                raise DeliveryError("package-decode",
                                    "truncated package")
            offset += n
            return chunk

        values = []
        for _ in range(4):
            length = int.from_bytes(take(4), "big")
            if length > len(data):
                raise DeliveryError("package-decode",
                                    "package field length too large")
            values.append(take(length))
        if offset != len(data):
            raise DeliveryError("package-decode",
                                "trailing bytes after package")
        return cls(label=values[0], kem_ciphertext=values[1],
                   nonce=values[2], sealed_payload=values[3])


class AttestedPublisher:
    """Publisher-side: verify, then encrypt-to-enclave.

    Parameters pin everything a careful verifier must pin: the device's
    public identity, the known-good SM measurement and the expected
    enclave measurement.
    """

    def __init__(self, device_identity: dict, expected_sm_hash: bytes,
                 expected_enclave_hash: bytes,
                 params: MLKEMParams = ML_KEM_768):
        self.device_identity = device_identity
        self.expected_sm_hash = expected_sm_hash
        self.expected_enclave_hash = expected_enclave_hash
        self.params = params
        self._kem = MLKEM(params)

    def deliver(self, report_bytes: bytes, enclave_ek: bytes,
                payload: bytes, label: bytes = b"payload",
                entropy: bytes = None):
        """Verify the report + key binding; return a
        :class:`SealedPackage` or None if anything fails."""
        try:
            report = AttestationReport.decode(report_bytes)
        except ValueError:
            return None
        if not verify_report(report, self.device_identity,
                             self.expected_enclave_hash,
                             self.expected_sm_hash):
            return None
        if report.enclave_data != _BINDING_PREFIX + sha3_256(enclave_ek):
            return None                   # offered key not the attested one
        try:
            shared, kem_ciphertext = self._kem.encaps(enclave_ek,
                                                      entropy)
        except ValueError:
            return None
        key = derive_key(shared, "attested-delivery", label)
        nonce = sha3_256(kem_ciphertext)[:12]
        sealed = seal_aead(key, nonce, payload, label)
        return SealedPackage(label=label, kem_ciphertext=kem_ciphertext,
                             nonce=nonce, sealed_payload=sealed)


@dataclass
class DeliveryOutcome:
    """Result of a hardened delivery attempt sequence."""

    payload: bytes                    # None when delivery failed
    attempts: int
    elapsed: int                      # abstract transport time units
    recovered: bool                   # succeeded after >= 1 retry
    fault: FaultReport = None         # set only on failure
    last_reason: str = ""             # reason of the final failed try

    @property
    def ok(self) -> bool:
        return self.payload is not None


class DeliveryChannel:
    """Publisher-to-enclave delivery over a faultable transport, with
    bounded retry, exponential backoff and a delivery deadline.

    This is the recovery-hardening layer: a transient transport fault
    (dropped or corrupted package) costs one retry and the delivery
    *recovers*; a persistent fault exhausts ``max_attempts`` or the
    ``deadline`` budget and the channel fails closed with a
    machine-readable :class:`~repro.faults.report.FaultReport` —
    never a hang, never a silently wrong payload (AEAD authentication
    rejects every corrupted package).

    The transport is where ``tee.delivery.transport`` faults land:
    drop (package lost), corrupt (single-bit upset on the wire) and
    delay (adds ``magnitude`` time units toward the deadline).

    Every package is additionally bound to this channel's ``session``
    identifier and a per-delivery sequence number: the publisher seals
    under a wire label ``label | session | sequence`` and the enclave
    refuses (reason ``"replay"``) any package whose label is not the
    one the current delivery expects.  That closes the rollback attack
    the adversary campaign found: an AEAD-valid package recorded from
    an earlier session (stale model weights, a downgraded firmware
    blob) authenticates perfectly, so without the binding the enclave
    would silently accept it.
    """

    #: Transport attempts per delivery, the first backoff step (doubling
    #: per retry) and the delivery deadline, in transport ticks.
    max_attempts = 4
    backoff_base = 1
    deadline = 64

    def __init__(self, publisher: AttestedPublisher,
                 enclave: EnclaveKemIdentity, session: bytes = b""):
        self.publisher = publisher
        self.enclave = enclave
        self.session = session
        self._sequence = 0

    def _wire_label(self, label: bytes, sequence: int) -> bytes:
        """The sealed label: caller label, channel session and the
        monotonically increasing delivery sequence number."""
        return b"|".join((label, self.session,
                          sequence.to_bytes(4, "big")))

    def _transport(self, wire: bytes):
        """One traversal of the faultable wire.

        Returns ``(received_bytes_or_None, extra_delay)``.
        """
        delay = 1
        if FAULTS.enabled:
            spec = FAULTS.fire("tee.delivery.transport")
            if spec is not None:
                if spec.model == TRANSPORT_DROP:
                    return None, delay
                if spec.model == TRANSPORT_CORRUPT:
                    wire = flip_bit(wire, spec.bit)
                elif spec.model == TRANSPORT_DELAY:
                    delay += max(1, spec.magnitude)
        return wire, delay

    def deliver(self, report_bytes: bytes, payload: bytes,
                label: bytes = b"payload") -> DeliveryOutcome:
        """Run the full attested delivery with recovery.

        Attestation rejection is deterministic, so it fails fast (no
        retry).  Transport-level failures — lost package, corrupted
        wire bytes, AEAD rejection — are retried with exponential
        backoff until ``max_attempts`` or ``deadline`` runs out.
        """
        elapsed = 0
        last_reason = "transport-timeout"
        sequence = self._sequence
        self._sequence += 1
        wire_label = self._wire_label(label, sequence)
        for attempt in range(1, self.max_attempts + 1):
            # Fresh encapsulation entropy per attempt: a replayed
            # package is never re-sent, so a corrupting channel cannot
            # collect two copies of the same ciphertext.
            entropy = sha3_256(b"delivery-attempt" + wire_label
                               + attempt.to_bytes(4, "big"))
            package = self.publisher.deliver(report_bytes,
                                             self.enclave.ek, payload,
                                             label=wire_label,
                                             entropy=entropy)
            if package is None:
                if AUDIT.enabled:
                    AUDIT.emit("tee.delivery", "delivery-rejected",
                               severity="critical",
                               reason="attestation-rejected",
                               sequence=sequence, attempts=attempt)
                return DeliveryOutcome(
                    payload=None, attempts=attempt, elapsed=elapsed,
                    recovered=False, fault=FaultReport(
                        component="tee.delivery",
                        outcome=Outcome.DETECTED,
                        reason="attestation-rejected"),
                    last_reason="attestation-rejected")
            received, delay = self._transport(package.encode())
            elapsed += delay
            if elapsed > self.deadline:
                # The receiver gave up before the package arrived; a
                # late package is discarded, never half-trusted.
                last_reason = "transport-delay"
                break
            if received is not None:
                try:
                    decoded = SealedPackage.decode(received)
                    clear = self.enclave.unwrap(
                        decoded, expected_label=wire_label)
                    if AUDIT.enabled:
                        AUDIT.emit("tee.delivery", "delivery-accepted",
                                   sequence=sequence, attempts=attempt,
                                   recovered=attempt > 1)
                    return DeliveryOutcome(
                        payload=clear, attempts=attempt,
                        elapsed=elapsed, recovered=attempt > 1)
                except DeliveryError as exc:
                    last_reason = exc.reason
            else:
                last_reason = "transport-drop"
            if AUDIT.enabled:
                AUDIT.emit("tee.delivery", "delivery-attempt-failed",
                           severity="warning", reason=last_reason,
                           sequence=sequence, attempt=attempt)
            if elapsed >= self.deadline:
                break
            elapsed += self.backoff_base * (2 ** (attempt - 1))
        if AUDIT.enabled:
            AUDIT.emit("tee.delivery", "delivery-rejected",
                       severity="critical", reason=last_reason,
                       sequence=sequence, attempts=attempt)
        return DeliveryOutcome(
            payload=None, attempts=attempt, elapsed=elapsed,
            recovered=False, fault=FaultReport(
                component="tee.delivery", outcome=Outcome.DETECTED,
                reason="transport-timeout",
                detail=f"last failure: {last_reason}"),
            last_reason=last_reason)
