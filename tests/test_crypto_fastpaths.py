"""Parity suites pinning the crypto fast paths to retained references.

Every optimized kernel in :mod:`repro.crypto` keeps its pre-optimization
implementation in ``crypto_reference`` next to this file; these tests
assert the fast path is byte-identical (signatures, hashes, blocks) or
point-equal (curve arithmetic) to that reference, on fixed KATs and on
hypothesis-generated inputs.  The measured-boot memo in
:mod:`repro.tee.bootrom` is covered too: hits must replay identical
bytes and identical PERF deltas, and armed fault injection must bypass
the cache entirely.  So is the SM-image measurement memo below it:
its digests are hashlib's, cold and warm, and the measure fault hook
still lands on every call while it serves them.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes as aes_mod
from repro.crypto import ed25519 as ed
from repro.crypto import keccak as kc
from repro.crypto import lattice
from repro.crypto import mldsa as m
from repro.crypto.mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from repro.faults.injector import FAULTS, FaultSpec
from repro.faults.models import BIT_FLIP, flip_bit
from repro.obs.perf import PERF, counting
from repro.tee import bootrom
from repro.tee.bootrom import BootRom
from repro.tee.device import Device

import pytest

import crypto_reference as ref
from parity import assert_parity

_POLY = st.lists(st.integers(min_value=0, max_value=m.Q - 1),
                 min_size=m.N, max_size=m.N)
_SCALAR = st.integers(min_value=0, max_value=2**256 - 1)


class TestKeccakParity:

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=600))
    def test_sha3_matches_hashlib(self, data):
        assert kc.sha3_256(data) == hashlib.sha3_256(data).digest()
        assert kc.sha3_512(data) == hashlib.sha3_512(data).digest()

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=400),
           st.integers(min_value=0, max_value=500))
    def test_shake_matches_hashlib(self, data, outlen):
        assert kc.Shake128(data).read(outlen) == \
            hashlib.shake_128(data).digest(outlen)
        assert kc.shake256(data, outlen) == \
            hashlib.shake_256(data).digest(outlen)


class TestEd25519Parity:

    @settings(max_examples=15, deadline=None)
    @given(_SCALAR)
    def test_comb_base_mul_matches_double_and_add(self, scalar):
        fast = ed._point_mul_base(scalar)
        reference = ref.ed25519_point_mul(scalar, ed.BASE_POINT)
        assert ed._point_equal(fast, reference)

    @settings(max_examples=10, deadline=None)
    @given(_SCALAR, _SCALAR, st.binary(min_size=32, max_size=32))
    def test_straus_chain_matches_two_reference_muls(self, s, k, seed):
        point = ed._decompress(ed.public_key(seed))
        fast = ed._double_scalar_mul(s % ed.L, k % ed.L, point)
        reference = ed._point_add(
            ref.ed25519_point_mul(s % ed.L, ed.BASE_POINT),
            ref.ed25519_point_mul(k % ed.L, point))
        assert ed._point_equal(fast, reference)

    @settings(max_examples=20, deadline=None)
    @given(_SCALAR)
    def test_point_double_matches_add(self, scalar):
        p = ref.ed25519_point_mul(scalar | 1, ed.BASE_POINT)
        assert ed._point_equal(ed._point_double(p), ed._point_add(p, p))

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64))
    def test_sign_verify_match_reference(self, seed, message):
        public = ed.public_key(seed)
        signature = ed.SigningKey(seed).sign(message)
        assert signature == ed._sign(seed, message)
        assert ed.verify(public, message, signature)
        assert ref.ed25519_verify(public, message, signature)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64),
           st.integers(min_value=0, max_value=511))
    def test_windowed_verify_rejects_like_reference(self, seed, message,
                                                    flip):
        signature = bytearray(ed.sign(seed, message))
        signature[flip // 8] ^= 1 << (flip % 8)
        public = ed.public_key(seed)
        assert ed.verify(public, message, bytes(signature)) == \
            ref.ed25519_verify(public, message, bytes(signature))


def _rows(*polys) -> np.ndarray:
    return np.array(polys, dtype=np.int64)


class TestMLDSAParity:

    @settings(max_examples=30, deadline=None)
    @given(_POLY, _POLY)
    def test_lazy_ntt_matches_reference(self, poly, other):
        out = m.RING.ntt(_rows(poly, other)).tolist()
        assert out == [ref.mldsa_ntt(poly), ref.mldsa_ntt(other)]

    @settings(max_examples=30, deadline=None)
    @given(_POLY, _POLY)
    def test_lazy_intt_matches_reference(self, poly, other):
        out = m.RING.intt(_rows(poly, other)).tolist()
        assert out == [ref.mldsa_intt(poly), ref.mldsa_intt(other)]

    @settings(max_examples=30, deadline=None)
    @given(_POLY)
    def test_ntt_roundtrip(self, poly):
        assert m.RING.intt(m.RING.ntt(_rows(poly)))[0].tolist() == poly

    @settings(max_examples=20, deadline=None)
    @given(_POLY)
    def test_bulk_decompose_matches_scalar(self, poly):
        for gamma2 in ((m.Q - 1) // 88, (m.Q - 1) // 32):
            assert m._high_bits_np(_rows(poly), gamma2)[0].tolist() == \
                [ref.high_bits(c, gamma2) for c in poly]
            assert m._low_bits_np(_rows(poly), gamma2)[0].tolist() == \
                [ref.low_bits(c, gamma2) for c in poly]
        assert m._inf_norm_rows_np(_rows(poly))[0] == ref.infinity_norm(poly)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=23),
           st.randoms(use_true_random=False))
    def test_bit_packing_matches_loop_form(self, width, rand):
        rows = [[rand.randrange(1 << width) for _ in range(m.N)]
                for _ in range(3)]
        loop = b"".join(m.simple_bit_pack(row, (1 << width) - 1)
                        for row in rows)
        assert lattice.pack_bits(np.array(rows, dtype=np.int64),
                                 width).tobytes() == loop
        assert lattice.unpack_bits(loop, 3, width).tolist() == rows

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=32, max_size=64),
           st.sampled_from([ML_DSA_44, ML_DSA_65, ML_DSA_87]))
    def test_sample_in_ball_matches_reference(self, seed, params):
        assert m.sample_in_ball(seed, params) == \
            ref.mldsa_sample_in_ball(seed, params)

    @pytest.mark.parametrize("params", [ML_DSA_44, ML_DSA_65, ML_DSA_87],
                             ids=lambda p: p.name)
    def test_context_sign_byte_identical_to_reference(self, params):
        scheme = MLDSA(params)
        public, secret = scheme.key_gen(bytes(32))
        message, context = b"attest me", b"ctx"
        fast = scheme.sign(secret, message, context=context)
        reference = ref.mldsa_sign(scheme, secret, message,
                                          context=context)
        assert fast == reference
        assert fast == scheme.signer(secret).sign(message,
                                                  context=context)
        assert scheme.verify(public, message, fast, context=context)
        assert ref.mldsa_verify(scheme, public, message, fast,
                                       context=context)

    @settings(max_examples=3, deadline=None)
    @given(st.binary(max_size=48))
    def test_mldsa44_sign_matches_reference_on_any_message(self, msg):
        scheme = MLDSA(ML_DSA_44)
        _, secret = scheme.key_gen(bytes(32))
        assert scheme.sign(secret, msg) == \
            ref.mldsa_sign(scheme, secret, msg)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=2420 * 8 - 1))
    def test_verify_rejects_like_reference(self, flip):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(bytes(32))
        signature = bytearray(scheme.sign(secret, b"attest me"))
        signature[flip // 8] ^= 1 << (flip % 8)
        assert scheme.verify(public, b"attest me", bytes(signature)) == \
            ref.mldsa_verify(scheme, public, b"attest me",
                                    bytes(signature))


class TestAESParity:

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([16, 24, 32]), st.binary(min_size=44,
                                                    max_size=44),
           st.binary(max_size=100))
    def test_ctr_batch_matches_reference_blocks(self, key_len, material,
                                                data):
        key, nonce = material[:key_len], material[32:44]
        cipher = aes_mod.AES(key)
        keystream = b"".join(
            ref.aes_encrypt_block(cipher, nonce + i.to_bytes(4, "big"))
            for i in range((len(data) + 15) // 16))
        assert aes_mod.aes_ctr(key, nonce, data) == \
            bytes(x ^ y for x, y in zip(data, keystream))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([16, 24, 32]), st.binary(min_size=48,
                                                    max_size=48))
    def test_t_table_block_matches_reference(self, key_len, material):
        cipher = aes_mod.AES(material[:key_len])
        block = material[32:48]
        fast = cipher.encrypt_block(block)
        assert fast == ref.aes_encrypt_block(cipher, block)
        assert ref.aes_decrypt_block(cipher, fast) == block


class TestBootMemo:

    SM_BINARY = b"fastpath-sm-image" * 64

    def test_every_arm_identical(self):
        """A boot's bytes and PERF delta are the same cold, warm (a hit
        replays the build's delta), with never-hit memos, and traced,
        where the memo is bypassed: timed spans cannot be replayed."""
        def run(jobs):
            seed = hashlib.sha3_256(b"memo-perf").digest()
            return BootRom(Device(seed)).boot(self.SM_BINARY).encode()

        arms = assert_parity(run, variants=("cold", "warm", "never_hit",
                                            "traced"))
        assert arms["warm"]["perf"]["tee.bootrom.boots"] == 1
        assert "tee.boot;tee.boot.measure " in arms["traced"]["collapsed"]

    def test_entry_minted_with_perf_off_counts_like_a_cold_boot(
            self, monkeypatch):
        """A boot memoized while PERF was off has no delta to replay,
        so its first counted hit rebuilds: the counted boots tick the
        real boot's counters, whatever the memo held before."""
        seed = hashlib.sha3_256(b"memo-perf-off").digest()
        rom = BootRom(Device(seed, post_quantum=True))
        binary = b"memo-perf-off-sm" * 64
        monkeypatch.setattr(PERF, "enabled", False)
        minted = rom.boot(binary)
        with counting() as cold:
            assert rom.boot(binary).encode() == minted.encode()
        cold_delta = cold.delta()
        with counting() as warm:
            assert rom.boot(binary).encode() == minted.encode()
        warm_delta = warm.delta()
        with counting() as real:
            rom._boot(binary)
        assert cold_delta["tee.bootrom.boots"] == 1
        assert cold_delta["crypto.mldsa.key_gen"] > 0
        assert warm_delta == cold_delta == real.delta()

    def test_armed_faults_bypass_memo(self):
        rom = BootRom(Device(hashlib.sha3_256(b"memo-fault").digest()))
        binary = b"memo-fault-sm" * 64
        clean = rom.boot(binary)          # warm the cache
        FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=0))
        try:
            faulted = rom.boot(binary)
        finally:
            events = FAULTS.disarm()
        assert events, "the fault should fire: memo must not serve " \
                       "an armed-injection boot"
        assert faulted.sm_measurement != clean.sm_measurement
        # ...and the cache was neither consulted nor poisoned:
        assert rom.boot(binary).encode() == clean.encode()


class TestMeasurementMemo:
    """``BootRom.measure`` hashes through ``bootrom.MEASUREMENT_MEMO``,
    keyed on the exact image bytes; its PERF tick and fault hook stay
    outside the memo."""

    IMAGE = hashlib.sha3_256(b"measurement-memo").digest() * 2048

    @pytest.fixture(autouse=True)
    def _cold(self):
        bootrom.MEASUREMENT_MEMO.clear()
        yield
        FAULTS.disarm()
        bootrom.MEASUREMENT_MEMO.clear()

    def _rom(self):
        return BootRom(Device(bytes(32)))

    def test_equals_hashlib_cold_and_warm(self):
        rom = self._rom()
        expected = hashlib.sha3_512(self.IMAGE).digest()
        assert rom.measure(self.IMAGE) == expected
        assert rom.measure(bytearray(self.IMAGE)) == expected
        stats = bootrom.MEASUREMENT_MEMO.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_one_bit_flipped_image_misses(self):
        rom = self._rom()
        rom.measure(self.IMAGE)
        flipped = flip_bit(self.IMAGE, 12345)
        assert rom.measure(flipped) == hashlib.sha3_512(flipped).digest()
        stats = bootrom.MEASUREMENT_MEMO.stats()
        assert (stats["misses"], stats["hits"]) == (2, 0)

    @pytest.mark.parametrize("trigger", [0, 1])
    def test_measure_fault_lands_on_both_sides_while_warm(self, trigger):
        """The campaign's ``tee.bootrom.measure`` point (``triggers=2``)
        flips the boot-side measure (visit 0) or the verify-side one
        (visit 1); either fails the boot closed although the memo
        serves both hashes, and the memo keeps the true digest."""
        rom = self._rom()
        golden = rom.measure(self.IMAGE)                  # warm
        FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP,
                             trigger=trigger, bit=77))
        try:
            verified = rom.boot_verified(self.IMAGE)
        finally:
            events = FAULTS.disarm()
        assert [event.visit for event in events] == [trigger]
        assert not verified.ok
        assert verified.fault.reason == "boot-verification-failed"
        stats = bootrom.MEASUREMENT_MEMO.stats()
        assert (stats["misses"], stats["hits"]) == (1, 2)
        assert rom.measure(self.IMAGE) == golden

    def test_flipped_measurement_is_the_flipped_digest(self):
        rom = self._rom()
        golden = rom.measure(self.IMAGE)
        FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, count=2,
                             bit=5))
        try:
            faulted = [rom.measure(self.IMAGE), rom.measure(self.IMAGE)]
        finally:
            FAULTS.disarm()
        assert faulted == [flip_bit(golden, 5)] * 2
        assert rom.measure(self.IMAGE) == golden

    def test_perf_totals_equal_cold_and_warm(self):
        def run(jobs):
            verified = self._rom().boot_verified(self.IMAGE)
            assert verified.ok
            return verified.report.encode()

        arms = assert_parity(run, variants=("cold", "warm"))
        assert arms["warm"]["perf"]["tee.bootrom.measurements"] == 2

    def test_never_holds_more_than_maxsize(self):
        rom = self._rom()
        memo = bootrom.MEASUREMENT_MEMO
        images = [flip_bit(self.IMAGE, bit)
                  for bit in range(memo.maxsize + 3)]
        for image in images:
            assert rom.measure(image) == hashlib.sha3_512(image).digest()
            assert memo.stats()["size"] <= memo.maxsize
        assert memo.stats()["evictions"] == 3
        assert images[-1] in memo and images[0] not in memo
