"""Tests for device identity, the bootrom image and measured boot."""

import pytest

from repro.tee import (BootRom, DEFAULT_SECTIONS, Device,
                       PQ_EXTRA_SECTIONS, build_tee, synthetic_sm_binary)

ROOT = bytes(range(32))


class TestDevice:
    def test_requires_32_byte_secret(self):
        with pytest.raises(ValueError):
            Device(bytes(31))

    def test_classical_identity_always_present(self):
        device = Device(ROOT)
        assert len(device.ed25519_public) == 32
        assert device.mldsa_public is None

    def test_pq_identity(self):
        device = Device(ROOT, post_quantum=True)
        assert len(device.mldsa_public) == 1312
        assert len(device.mldsa_seed) == 32

    def test_deterministic_in_root_secret(self):
        assert Device(ROOT).ed25519_public == Device(ROOT).ed25519_public
        assert Device(ROOT).ed25519_public != \
            Device(bytes(32)).ed25519_public

    def test_sm_secret_binds_measurement(self):
        device = Device(ROOT)
        assert device.derive_sm_secret(b"a" * 64) != \
            device.derive_sm_secret(b"b" * 64)

    def test_public_identity_contents(self):
        assert set(Device(ROOT).public_identity()) == {"ed25519"}
        assert set(Device(ROOT, post_quantum=True).public_identity()) == \
            {"ed25519", "mldsa"}


class TestBootromImage:
    def test_default_size_is_50_7_kb(self):
        rom = BootRom(Device(ROOT))
        assert rom.image_size == 51917
        assert round(rom.image_size / 1024, 1) == 50.7

    def test_pq_size_is_60_2_kb(self):
        rom = BootRom(Device(ROOT, post_quantum=True))
        assert rom.image_size == 61645
        assert round(rom.image_size / 1024, 1) == 60.2

    def test_image_bytes_match_declared_size(self):
        rom = BootRom(Device(ROOT, post_quantum=True))
        assert len(rom.image()) == rom.image_size

    def test_pq_stores_seed_not_expanded_key(self):
        """The mitigation: 32 bytes in ROM instead of a 2560-byte key."""
        seed_section = next(s for s in PQ_EXTRA_SECTIONS
                            if s.name == "device_mldsa_seed")
        assert seed_section.size == 32

    def test_section_content_deterministic(self):
        section = DEFAULT_SECTIONS[1]
        assert section.content() == section.content()
        assert len(section.content()) == section.size


class TestMeasuredBoot:
    @pytest.fixture(scope="class")
    def pq_boot(self):
        device = Device(ROOT, post_quantum=True)
        rom = BootRom(device)
        sm_binary = synthetic_sm_binary()
        return device, rom, sm_binary, rom.boot(sm_binary)

    def test_measurement_is_sha3_512(self, pq_boot):
        _, rom, sm_binary, report = pq_boot
        assert len(report.sm_measurement) == 64
        assert report.sm_measurement == rom.measure(sm_binary)

    def test_boot_signatures_verify(self, pq_boot):
        _, rom, sm_binary, report = pq_boot
        assert rom.verify_boot(sm_binary, report)

    def test_tampered_sm_detected(self, pq_boot):
        _, rom, sm_binary, report = pq_boot
        tampered = b"evil" + sm_binary[4:]
        assert not rom.verify_boot(tampered, report)

    def test_pq_key_regenerated_from_seed(self, pq_boot):
        _, _, _, report = pq_boot
        assert report.regenerated_pq_key_bytes == 2560

    def test_classical_boot_has_no_pq_material(self):
        device = Device(ROOT)
        report = BootRom(device).boot(synthetic_sm_binary())
        assert report.pq_boot_signature == b""
        assert report.sm_mldsa_seed == b""
        assert report.regenerated_pq_key_bytes == 0

    def test_sm_keys_depend_on_measurement(self):
        device = Device(ROOT, post_quantum=True)
        rom = BootRom(device)
        report_a = rom.boot(synthetic_sm_binary(1))
        report_b = rom.boot(synthetic_sm_binary(2))
        assert report_a.sm_ed25519_seed != report_b.sm_ed25519_seed
        assert report_a.sm_mldsa_seed != report_b.sm_mldsa_seed

    def test_sm_certificates_present(self, pq_boot):
        _, _, _, report = pq_boot
        assert len(report.sm_cert_classical) == 64
        assert len(report.sm_cert_pq) == 2420
        assert len(report.sm_ed25519_public) == 32
        assert len(report.sm_mldsa_public) == 1312


class TestBuildTee:
    def test_default_stack_sizes(self):
        assert build_tee().sm.config.stack_bytes == 8 * 1024
        assert build_tee(post_quantum=True).sm.config.stack_bytes == \
            128 * 1024

    def test_sm_binary_in_dram_measured(self):
        platform = build_tee()
        dram = platform.memory.memory_map["dram"]
        loaded = platform.memory.read(dram.base, len(platform.sm_binary))
        assert loaded == platform.sm_binary
        assert platform.boot_report.sm_measurement == \
            platform.bootrom.measure(platform.sm_binary)
