"""Recovery-hardened attested delivery: typed errors, retry, timeout.

ISSUE 2 satellite: `DeliveryError` carries machine-readable reason
codes for each failure class, and the `DeliveryChannel` bounds every
transient fault with retry-with-backoff and a delivery deadline.
"""

import pytest

from repro.faults import FAULTS, FaultSpec
from repro.faults.models import (TRANSPORT_CORRUPT, TRANSPORT_DELAY,
                                 TRANSPORT_DROP)
from repro.tee import build_tee
from repro.tee.delivery import (AttestedPublisher, DeliveryChannel,
                                DeliveryError, EnclaveKemIdentity,
                                SealedPackage)

from helpers import injected

PAYLOAD = b"model-weights-" * 16


@pytest.fixture(autouse=True)
def _disarmed():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def rig():
    """Platform + attested enclave KEM identity + pinned publisher."""
    platform = build_tee()
    enclave = platform.sm.create_enclave(b"\x7f" * 128)
    kem = EnclaveKemIdentity(seed_d=bytes(32), seed_z=bytes(32))
    report = platform.sm.attest_enclave(enclave, kem.report_binding())
    publisher = AttestedPublisher(
        platform.device.public_identity(),
        expected_sm_hash=platform.boot_report.sm_measurement,
        expected_enclave_hash=enclave.measurement)
    return {"publisher": publisher, "kem": kem,
            "report_bytes": report.encode()}


def _channel(rig, **kwargs):
    return DeliveryChannel(rig["publisher"], rig["kem"], **kwargs)


class TestDeliveryErrorReasons:
    def test_is_a_value_error(self):
        assert issubclass(DeliveryError, ValueError)

    def test_decaps_reason(self, rig):
        package = SealedPackage(label=b"l", kem_ciphertext=b"short",
                                nonce=bytes(12), sealed_payload=b"x")
        with pytest.raises(DeliveryError) as excinfo:
            rig["kem"].unwrap(package)
        assert excinfo.value.reason == "decaps"

    def test_decaps_reason_on_corrupt_decapsulation_key(self, rig):
        """FIPS 203 hash check: a dk whose embedded ek no longer
        matches its stored H(ek) is refused before decapsulation."""
        package = rig["publisher"].deliver(
            rig["report_bytes"], rig["kem"].ek, PAYLOAD,
            entropy=bytes(32))
        corrupt = EnclaveKemIdentity(seed_d=bytes(32), seed_z=bytes(32))
        dk = bytearray(corrupt._dk)
        dk[384 * corrupt.params.k + 7] ^= 0x01     # inside the embedded ek
        corrupt._dk = bytes(dk)
        with pytest.raises(DeliveryError) as excinfo:
            corrupt.unwrap(package)
        assert excinfo.value.reason == "decaps"
        assert rig["kem"].unwrap(package) == PAYLOAD

    def test_auth_reason_on_tampered_ciphertext(self, rig):
        package = rig["publisher"].deliver(
            rig["report_bytes"], rig["kem"].ek, PAYLOAD,
            entropy=bytes(32))
        bad = SealedPackage(
            label=package.label,
            kem_ciphertext=bytes(package.kem_ciphertext[:-1])
            + bytes([package.kem_ciphertext[-1] ^ 1]),
            nonce=package.nonce,
            sealed_payload=package.sealed_payload)
        # ML-KEM implicit rejection: decaps "succeeds" with an
        # unrelated secret, then AEAD authentication catches it.
        with pytest.raises(DeliveryError) as excinfo:
            rig["kem"].unwrap(bad)
        assert excinfo.value.reason == "auth"

    def test_package_decode_reason(self):
        with pytest.raises(DeliveryError) as excinfo:
            SealedPackage.decode(b"NOPE" + bytes(40))
        assert excinfo.value.reason == "package-decode"


class TestSealedPackageWireFormat:
    def test_round_trip(self, rig):
        package = rig["publisher"].deliver(
            rig["report_bytes"], rig["kem"].ek, PAYLOAD,
            entropy=bytes(32))
        decoded = SealedPackage.decode(package.encode())
        assert decoded == package
        assert rig["kem"].unwrap(decoded) == PAYLOAD

    def test_truncation_rejected(self, rig):
        package = rig["publisher"].deliver(
            rig["report_bytes"], rig["kem"].ek, PAYLOAD,
            entropy=bytes(32))
        with pytest.raises(DeliveryError):
            SealedPackage.decode(package.encode()[:-1])
        with pytest.raises(DeliveryError):
            SealedPackage.decode(package.encode() + b"\x00")


class TestDeliveryChannel:
    def test_clean_delivery_first_attempt(self, rig):
        outcome = _channel(rig).deliver(rig["report_bytes"], PAYLOAD)
        assert outcome.ok
        assert outcome.payload == PAYLOAD
        assert outcome.attempts == 1
        assert not outcome.recovered
        assert outcome.fault is None

    def test_transient_drop_recovers(self, rig):
        with injected(FaultSpec("tee.delivery.transport",
                                TRANSPORT_DROP)):
            outcome = _channel(rig).deliver(rig["report_bytes"],
                                            PAYLOAD)
        assert outcome.ok
        assert outcome.payload == PAYLOAD
        assert outcome.attempts == 2
        assert outcome.recovered

    def test_transient_corruption_recovers(self, rig):
        with injected(FaultSpec("tee.delivery.transport",
                                TRANSPORT_CORRUPT, bit=777)):
            outcome = _channel(rig).deliver(rig["report_bytes"],
                                            PAYLOAD)
        assert outcome.ok
        assert outcome.recovered

    def test_persistent_drop_times_out_bounded(self, rig):
        with injected(FaultSpec("tee.delivery.transport",
                                TRANSPORT_DROP, count=100)):
            outcome = _channel(rig).deliver(
                rig["report_bytes"], PAYLOAD)
        assert not outcome.ok
        assert outcome.attempts == 4
        assert outcome.fault.reason == "transport-timeout"
        assert "transport-drop" in outcome.fault.detail

    def test_huge_delay_misses_deadline(self, rig):
        with injected(FaultSpec("tee.delivery.transport",
                                TRANSPORT_DELAY, magnitude=1000)):
            outcome = _channel(rig).deliver(
                rig["report_bytes"], PAYLOAD)
        assert not outcome.ok
        assert outcome.fault.reason == "transport-timeout"
        assert "transport-delay" in outcome.fault.detail

    def test_attestation_rejection_fails_fast(self, rig):
        outcome = _channel(rig).deliver(b"garbage-report", PAYLOAD)
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.fault.reason == "attestation-rejected"


class TestRetryExhaustionDiagnostics:
    """After retry exhaustion the outcome carries the last transport
    reason code."""

    def test_outcome_carries_last_reason(self, rig):
        with injected(FaultSpec("tee.delivery.transport",
                                TRANSPORT_DROP, count=100)):
            outcome = _channel(rig).deliver(
                rig["report_bytes"], PAYLOAD)
        assert not outcome.ok
        assert outcome.attempts == 4
        assert outcome.last_reason == "transport-drop"


class TestReplayRejection:
    """ISSUE 7: the session + sequence label binding rejects replayed
    and rolled-back packages before any cryptography runs."""

    def _sealed(self, rig, label, payload=PAYLOAD):
        return rig["publisher"].deliver(rig["report_bytes"],
                                        rig["kem"].ek, payload,
                                        label=label, entropy=bytes(32))

    def test_matching_binding_unwraps(self, rig):
        channel = _channel(rig, session=b"s1")
        label = channel._wire_label(b"payload", 0)
        package = self._sealed(rig, label)
        assert rig["kem"].unwrap(package,
                                 expected_label=label) == PAYLOAD

    def test_cross_session_replay_rejected(self, rig):
        stale = _channel(rig, session=b"session-old") \
            ._wire_label(b"weights", 0)
        live = _channel(rig, session=b"session-live") \
            ._wire_label(b"weights", 0)
        package = self._sealed(rig, stale, payload=b"stale-weights")
        with pytest.raises(DeliveryError) as excinfo:
            rig["kem"].unwrap(package, expected_label=live)
        assert excinfo.value.reason == "replay"

    def test_sequence_rollback_rejected(self, rig):
        channel = _channel(rig, session=b"s1")
        old = self._sealed(rig, channel._wire_label(b"payload", 0))
        # Protocol state has moved on to sequence 1: re-presenting
        # the sequence-0 package is a rollback, not a delivery.
        with pytest.raises(DeliveryError) as excinfo:
            rig["kem"].unwrap(
                old, expected_label=channel._wire_label(b"payload", 1))
        assert excinfo.value.reason == "replay"

    def test_channel_advances_sequence_per_delivery(self, rig):
        channel = _channel(rig, session=b"s1")
        first = channel.deliver(rig["report_bytes"], PAYLOAD)
        second = channel.deliver(rig["report_bytes"], PAYLOAD)
        assert first.ok and second.ok
        assert channel._sequence == 2
