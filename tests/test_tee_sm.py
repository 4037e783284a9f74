"""Tests for the security monitor: isolation, attestation, sealing.

These are the integration tests of the TEE stack — each one exercises a
security property the paper claims (Section III-B).
"""

import pytest

from repro.soc import AccessFault, DRAM_BASE
from repro.tee import (DEFAULT_REPORT_LEN, AttestationReport, EnclaveState,
                       build_tee, pq_report_len, seal, unseal,
                       verify_report)


@pytest.fixture(scope="module")
def classical():
    return build_tee()


@pytest.fixture(scope="module")
def pq():
    return build_tee(post_quantum=True)


class TestEnclaveLifecycle:
    def test_create_loads_binary(self, classical):
        enclave = classical.sm.create_enclave(b"workload-binary")
        loaded = classical.memory.read(enclave.region.base, 15)
        assert loaded == b"workload-binary"
        classical.sm.destroy_enclave(enclave)

    def test_measurement_depends_on_binary(self, classical):
        a = classical.sm.create_enclave(b"bin-a")
        b = classical.sm.create_enclave(b"bin-b")
        c = classical.sm.create_enclave(b"bin-a")
        try:
            assert a.measurement != b.measurement
            assert a.measurement == c.measurement
        finally:
            for enclave in (a, b, c):
                classical.sm.destroy_enclave(enclave)

    def test_destroy_wipes_memory(self, classical):
        enclave = classical.sm.create_enclave(b"secret-weights")
        base = enclave.region.base
        classical.sm.destroy_enclave(enclave)
        assert classical.memory.read(base, 14) == bytes(14)

    def test_destroyed_enclave_unusable(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        classical.sm.destroy_enclave(enclave)
        with pytest.raises(RuntimeError):
            classical.sm.attest_enclave(enclave)

    def test_state_machine(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        assert enclave.state is EnclaveState.CREATED
        classical.sm.run_enclave(enclave, lambda hart: None)
        assert enclave.state is EnclaveState.STOPPED
        classical.sm.destroy_enclave(enclave)
        assert enclave.state is EnclaveState.DESTROYED

    def test_oversized_binary_rejected(self, classical):
        with pytest.raises(ValueError):
            classical.sm.create_enclave(bytes(2 * 1024 * 1024))


class TestIsolation:
    def test_enclave_reads_own_memory(self, classical):
        enclave = classical.sm.create_enclave(b"my-binary")

        def workload(hart):
            return hart.load(enclave.region.base, 9)

        assert classical.sm.run_enclave(enclave, workload) == b"my-binary"
        classical.sm.destroy_enclave(enclave)

    def test_enclave_cannot_read_sm(self, classical):
        enclave = classical.sm.create_enclave(b"bin")

        def workload(hart):
            return hart.load(DRAM_BASE, 4)  # the SM lives here

        with pytest.raises(AccessFault):
            classical.sm.run_enclave(enclave, workload)
        classical.sm.destroy_enclave(enclave)

    def test_enclave_cannot_read_other_enclave(self, classical):
        victim = classical.sm.create_enclave(b"victim-secret")
        attacker = classical.sm.create_enclave(b"attacker")

        def workload(hart):
            return hart.load(victim.region.base, 13)

        with pytest.raises(AccessFault):
            classical.sm.run_enclave(attacker, workload)
        for enclave in (victim, attacker):
            classical.sm.destroy_enclave(enclave)

    def test_enclave_cannot_read_os_memory(self, classical):
        # "OS memory": DRAM outside the SM and enclave carve-outs.
        enclave = classical.sm.create_enclave(b"bin")
        os_address = classical.memory.memory_map["dram"].end - 0x1000

        def workload(hart):
            return hart.load(os_address, 4)

        with pytest.raises(AccessFault):
            classical.sm.run_enclave(enclave, workload)
        classical.sm.destroy_enclave(enclave)

    def test_os_cannot_read_enclave(self, classical):
        enclave = classical.sm.create_enclave(b"enclave-secret")
        hart = classical.hart
        hart.drop_to(hart.mode.SUPERVISOR)
        try:
            with pytest.raises(AccessFault):
                hart.load(enclave.region.base, 4)
        finally:
            hart.trap("test-exit")
        classical.sm.destroy_enclave(enclave)

    def test_os_can_use_its_own_dram(self, classical):
        hart = classical.hart
        os_address = classical.memory.memory_map["dram"].end - 0x1000
        hart.drop_to(hart.mode.SUPERVISOR)
        try:
            hart.store(os_address, b"os-data")
            assert hart.load(os_address, 7) == b"os-data"
        finally:
            hart.trap("test-exit")

    def test_os_cannot_read_sm(self, classical):
        hart = classical.hart
        hart.drop_to(hart.mode.SUPERVISOR)
        try:
            with pytest.raises(AccessFault):
                hart.load(DRAM_BASE, 4)
        finally:
            hart.trap("test-exit")


class TestAttestation:
    def test_default_report_size(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        report = classical.sm.attest_enclave(enclave, b"nonce")
        assert len(report.encode()) == DEFAULT_REPORT_LEN == 1320
        classical.sm.destroy_enclave(enclave)

    def test_pq_report_size(self, pq):
        enclave = pq.sm.create_enclave(b"bin")
        report = pq.sm.attest_enclave(enclave, b"nonce")
        assert len(report.encode()) == pq_report_len() == 7472
        pq.sm.destroy_enclave(enclave)

    def test_report_roundtrip_and_verify(self, pq):
        enclave = pq.sm.create_enclave(b"bin")
        report = pq.sm.attest_enclave(enclave, b"challenge-data")
        decoded = AttestationReport.decode(report.encode())
        assert decoded.enclave_data == b"challenge-data"
        assert verify_report(decoded, pq.device.public_identity(),
                             enclave.measurement)
        pq.sm.destroy_enclave(enclave)

    def test_verify_rejects_wrong_enclave_hash(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        report = classical.sm.attest_enclave(enclave)
        assert not verify_report(report, classical.device.public_identity(),
                                 b"\x00" * 64)
        classical.sm.destroy_enclave(enclave)

    def test_verify_rejects_tampered_data(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        report = classical.sm.attest_enclave(enclave, b"good")
        report.enclave_data = b"evil"
        assert not verify_report(report, classical.device.public_identity())
        classical.sm.destroy_enclave(enclave)

    def test_verify_rejects_other_device(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        report = classical.sm.attest_enclave(enclave)
        other = build_tee(b"\x01" * 32)
        assert not verify_report(report, other.device.public_identity())
        classical.sm.destroy_enclave(enclave)

    def test_pq_report_needs_pq_device_identity(self, pq):
        enclave = pq.sm.create_enclave(b"bin")
        report = pq.sm.attest_enclave(enclave)
        assert not verify_report(report, {"ed25519":
                                          pq.device.ed25519_public})
        pq.sm.destroy_enclave(enclave)

    def test_tampered_sm_detected_via_expected_hash(self):
        """Measured boot certifies *any* SM it measured — the verifier
        must pin the known-good SM measurement or a device running a
        modified SM still verifies (the bug this test pins down)."""
        genuine = build_tee(post_quantum=True, sm_version=1)
        modified = build_tee(post_quantum=True, sm_version=2)
        enclave = modified.sm.create_enclave(b"bin")
        report = modified.sm.attest_enclave(enclave)
        identity = modified.device.public_identity()
        # Chain-only verification passes (same device key hierarchy)...
        assert verify_report(report, identity)
        # ...but pinning the genuine SM measurement catches it.
        assert not verify_report(
            report, identity,
            expected_sm_hash=genuine.boot_report.sm_measurement)
        assert verify_report(
            report, identity,
            expected_sm_hash=modified.boot_report.sm_measurement)

    def test_decode_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            AttestationReport.decode(bytes(100))

    def test_decode_rejects_nonzero_padding(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        encoded = bytearray(classical.sm.attest_enclave(enclave).encode())
        encoded[64 + 8 + 500] = 0xFF  # inside the zero padding
        with pytest.raises(ValueError):
            AttestationReport.decode(bytes(encoded))
        classical.sm.destroy_enclave(enclave)

    def test_report_data_limit(self, classical):
        enclave = classical.sm.create_enclave(b"bin")
        report = classical.sm.attest_enclave(enclave, bytes(1024))
        assert len(report.encode()) == DEFAULT_REPORT_LEN
        report.enclave_data = bytes(1025)
        with pytest.raises(ValueError):
            report.encode()
        classical.sm.destroy_enclave(enclave)


class TestStackSizing:
    """The paper's ML-DSA stack finding, as a measurement."""

    def test_default_stack_suffices_for_classical(self):
        platform = build_tee(stack_bytes=8 * 1024)
        enclave = platform.sm.create_enclave(b"bin")
        report = platform.sm.attest_enclave(enclave)
        assert not platform.sm.stack.corrupted
        assert verify_report(report, platform.device.public_identity())

    def test_default_stack_corrupts_under_pq(self):
        platform = build_tee(post_quantum=True, stack_bytes=8 * 1024)
        enclave = platform.sm.create_enclave(b"bin")
        report = platform.sm.attest_enclave(enclave)
        assert platform.sm.stack.corrupted
        assert not verify_report(report, platform.device.public_identity())

    def test_128k_stack_fixes_pq(self):
        platform = build_tee(post_quantum=True, stack_bytes=128 * 1024)
        enclave = platform.sm.create_enclave(b"bin")
        report = platform.sm.attest_enclave(enclave)
        assert not platform.sm.stack.corrupted
        assert verify_report(report, platform.device.public_identity())
        assert platform.sm.stack.high_water > 8 * 1024


class TestSealing:
    def test_seal_unseal_roundtrip(self, pq):
        enclave = pq.sm.create_enclave(b"bin")
        key = pq.sm.sealing_key(enclave)
        blob = seal(key, bytes(12), b"model weights")
        assert unseal(key, bytes(12), blob) == b"model weights"
        pq.sm.destroy_enclave(enclave)

    def test_different_enclave_different_key(self, pq):
        a = pq.sm.create_enclave(b"bin-a")
        b = pq.sm.create_enclave(b"bin-b")
        key_a, key_b = pq.sm.sealing_key(a), pq.sm.sealing_key(b)
        assert key_a != key_b
        blob = seal(key_a, bytes(12), b"for A only")
        with pytest.raises(ValueError):
            unseal(key_b, bytes(12), blob)
        for enclave in (a, b):
            pq.sm.destroy_enclave(enclave)

    def test_same_enclave_same_key_across_boots(self):
        first = build_tee(post_quantum=True)
        second = build_tee(post_quantum=True)
        enclave_1 = first.sm.create_enclave(b"bin")
        enclave_2 = second.sm.create_enclave(b"bin")
        assert first.sm.sealing_key(enclave_1) == \
            second.sm.sealing_key(enclave_2)

    def test_modified_sm_cannot_unseal(self):
        genuine = build_tee(post_quantum=True, sm_version=1)
        modified = build_tee(post_quantum=True, sm_version=2)
        enclave_1 = genuine.sm.create_enclave(b"bin")
        enclave_2 = modified.sm.create_enclave(b"bin")
        key = genuine.sm.sealing_key(enclave_1)
        blob = seal(key, bytes(12), b"weights")
        with pytest.raises(ValueError):
            unseal(modified.sm.sealing_key(enclave_2), bytes(12), blob)

    def test_different_device_cannot_unseal(self):
        device_a = build_tee(b"\xaa" * 32, post_quantum=True)
        device_b = build_tee(b"\xbb" * 32, post_quantum=True)
        enclave_a = device_a.sm.create_enclave(b"bin")
        enclave_b = device_b.sm.create_enclave(b"bin")
        blob = seal(device_a.sm.sealing_key(enclave_a), bytes(12), b"w")
        with pytest.raises(ValueError):
            unseal(device_b.sm.sealing_key(enclave_b), bytes(12), blob)
