"""Tests for the from-scratch AES and the sealing AEAD."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes

import crypto_reference as ref


class TestGaloisField:
    def test_xtime_examples(self):
        assert aes._xtime(0x57) == 0xAE
        assert aes._xtime(0xAE) == 0x47  # wraps through the polynomial

    def test_gf_mul_known(self):
        # FIPS 197 example: 57 * 83 = c1
        assert aes.gf_mul(0x57, 0x83) == 0xC1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 255))
    def test_inverse_is_inverse(self, a):
        assert aes.gf_mul(a, aes._gf_inverse(a)) == 1

    def test_inverse_of_zero(self):
        assert aes._gf_inverse(0) == 0


class TestSbox:
    def test_known_entries(self):
        assert aes.SBOX[0x00] == 0x63
        assert aes.SBOX[0x01] == 0x7C
        assert aes.SBOX[0x53] == 0xED
        assert aes.SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(aes.SBOX) == list(range(256))

    def test_inverse_sbox(self):
        assert all(ref.INV_SBOX[aes.SBOX[i]] == i for i in range(256))


class TestKnownAnswer:
    """FIPS 197 Appendix C known-answer vectors."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    @pytest.mark.parametrize("key_len,expected", [
        (16, "69c4e0d86a7b0430d8cdb78070b4c55a"),
        (24, "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (32, "8ea2b7ca516745bfeafc49904b496089"),
    ])
    def test_encrypt(self, key_len, expected):
        cipher = aes.AES(bytes(range(key_len)))
        assert cipher.encrypt_block(self.PLAINTEXT).hex() == expected

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_inverts(self, key_len):
        cipher = aes.AES(bytes(range(key_len)))
        block = cipher.encrypt_block(self.PLAINTEXT)
        assert ref.aes_decrypt_block(cipher, block) == self.PLAINTEXT

    def test_round_counts(self):
        assert aes.AES(bytes(16)).rounds == 10
        assert aes.AES(bytes(24)).rounds == 12
        assert aes.AES(bytes(32)).rounds == 14


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            aes.AES(bytes(15))

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            aes.AES(bytes(16)).encrypt_block(bytes(15))
        with pytest.raises(ValueError):
            ref.aes_decrypt_block(aes.AES(bytes(16)), bytes(17))

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            aes.aes_ctr(bytes(32), bytes(11), b"data")


class TestModes:
    KEY = bytes(range(32))
    NONCE = bytes(range(12))

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=200))
    def test_ctr_roundtrip(self, data):
        enc = aes.aes_ctr(self.KEY, self.NONCE, data)
        assert aes.aes_ctr(self.KEY, self.NONCE, enc) == data

    def test_ctr_partial_block(self):
        enc = aes.aes_ctr(self.KEY, self.NONCE, b"abc")
        assert len(enc) == 3

    def test_aead_roundtrip(self):
        sealed = aes.seal_aead(self.KEY, self.NONCE, b"weights", b"meta")
        assert aes.open_aead(self.KEY, self.NONCE, sealed, b"meta") == \
            b"weights"

    def test_aead_rejects_ciphertext_tamper(self):
        sealed = bytearray(aes.seal_aead(self.KEY, self.NONCE, b"secret"))
        sealed[0] ^= 1
        with pytest.raises(ValueError):
            aes.open_aead(self.KEY, self.NONCE, bytes(sealed))

    def test_aead_rejects_tag_tamper(self):
        sealed = bytearray(aes.seal_aead(self.KEY, self.NONCE, b"secret"))
        sealed[-1] ^= 1
        with pytest.raises(ValueError):
            aes.open_aead(self.KEY, self.NONCE, bytes(sealed))

    def test_aead_rejects_wrong_ad(self):
        sealed = aes.seal_aead(self.KEY, self.NONCE, b"secret", b"ad1")
        with pytest.raises(ValueError):
            aes.open_aead(self.KEY, self.NONCE, sealed, b"ad2")

    def test_aead_rejects_wrong_key(self):
        sealed = aes.seal_aead(self.KEY, self.NONCE, b"secret")
        with pytest.raises(ValueError):
            aes.open_aead(bytes(32), self.NONCE, sealed)

    def test_aead_rejects_truncation(self):
        with pytest.raises(ValueError):
            aes.open_aead(self.KEY, self.NONCE, b"short")
