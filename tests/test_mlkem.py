"""Tests for the from-scratch ML-KEM (FIPS 203) implementation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import mlkem
from repro.crypto.keccak import Shake128
from repro.crypto.lattice import pack_bits, unpack_bits
from repro.crypto.mlkem import (ML_KEM_512, ML_KEM_768, ML_KEM_1024,
                                MLKEM, N, Q)

import crypto_reference as ref

D_SEED = bytes(range(32))
Z_SEED = bytes(range(32, 64))


@pytest.fixture(scope="module")
def keypair768():
    return MLKEM(ML_KEM_768).key_gen(D_SEED, Z_SEED)


def _rows(*polys) -> np.ndarray:
    return np.array(polys, dtype=np.int64)


_POLY = st.lists(st.integers(0, Q - 1), min_size=N, max_size=N)


class TestNTT:
    @settings(max_examples=20, deadline=None)
    @given(_POLY)
    def test_ntt_roundtrip(self, coeffs):
        ring = mlkem.RING
        assert ring.intt(ring.ntt(_rows(coeffs)))[0].tolist() == coeffs

    @settings(max_examples=30, deadline=None)
    @given(_POLY, _POLY)
    def test_ring_ntt_matches_fips203_loops(self, poly, other):
        out = mlkem.RING.ntt(_rows(poly, other)).tolist()
        assert out == [ref.mlkem_ntt(poly), ref.mlkem_ntt(other)]

    @settings(max_examples=30, deadline=None)
    @given(_POLY, _POLY)
    def test_ring_intt_matches_fips203_loops(self, poly, other):
        out = mlkem.RING.intt(_rows(poly, other)).tolist()
        assert out == [ref.mlkem_intt(poly), ref.mlkem_intt(other)]

    @settings(max_examples=30, deadline=None)
    @given(_POLY, _POLY)
    def test_base_mul_matches_fips203_loops(self, a, b):
        fast = mlkem._base_mul(_rows(a), _rows(b)) % Q
        assert fast[0].tolist() == ref.mlkem_ntt_mul(a, b)

    def test_ntt_multiplication_matches_schoolbook(self):
        import random
        rng = random.Random(13)
        a = [rng.randrange(Q) for _ in range(N)]
        b = [rng.randrange(Q) for _ in range(N)]
        ring = mlkem.RING
        fast = ring.intt(mlkem._base_mul(ring.ntt(_rows(a)),
                                         ring.ntt(_rows(b))))[0].tolist()
        reference = ref.mlkem_intt(ref.mlkem_ntt_mul(ref.mlkem_ntt(a),
                                                     ref.mlkem_ntt(b)))
        slow = [0] * N
        for i in range(N):
            for j in range(N):
                index = i + j
                term = a[i] * b[j]
                if index >= N:
                    slow[index - N] = (slow[index - N] - term) % Q
                else:
                    slow[index] = (slow[index] + term) % Q
        assert fast == reference == slow

    def test_zetas_are_256th_roots(self):
        assert all(pow(z, 256, Q) == 1 for z in mlkem.ZETAS)
        assert len(mlkem.ZETAS) == 128
        assert len(mlkem.GAMMAS) == 128


class TestCompression:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, Q - 1), st.sampled_from([1, 4, 5, 10, 11]))
    def test_compress_roundtrip_error_bound(self, value, bits):
        """|Decompress(Compress(x)) - x| <= round(q / 2^{d+1})."""
        recovered = int(mlkem._decompress(
            mlkem._compress(_rows([value]), bits), bits)[0, 0])
        error = min((recovered - value) % Q, (value - recovered) % Q)
        assert error <= (Q + (1 << (bits + 1)) - 1) // (1 << (bits + 1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1))
    def test_one_bit_roundtrip_exact(self, bit):
        assert mlkem._compress(mlkem._decompress(_rows([bit]), 1),
                               1)[0, 0] == bit

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 10 - 1), min_size=N,
                    max_size=N))
    def test_byte_encode_roundtrip(self, coeffs):
        packed = mlkem._encode(_rows(coeffs), 10)
        assert len(packed) == 320
        assert unpack_bits(packed, 1, 10)[0].tolist() == coeffs


def _first_squeeze_short(seed: bytes) -> bool:
    """Does the first 504-byte SHAKE128 squeeze of ``seed`` hold fewer
    than 256 accepted 12-bit candidates?"""
    data = hashlib.shake_128(seed).digest(504)
    accepted = 0
    for i in range(0, 504, 3):
        d1 = data[i] | ((data[i + 1] & 0x0F) << 8)
        d2 = (data[i + 1] >> 4) | (data[i + 2] << 4)
        accepted += (d1 < Q) + (d2 < Q)
    return accepted < N


def _sample_ntt_loop(seed: bytes) -> list:
    """SampleNTT as FIPS 203 Algorithm 7 writes it: 3-byte steps over
    one 504-byte squeeze after another."""
    xof = Shake128(seed)
    coeffs = []
    while len(coeffs) < N:
        chunk = xof.read(504)
        for i in range(0, len(chunk), 3):
            d1 = chunk[i] | ((chunk[i + 1] & 0x0F) << 8)
            d2 = (chunk[i + 1] >> 4) | (chunk[i + 2] << 4)
            for d in (d1, d2):
                if d < Q and len(coeffs) < N:
                    coeffs.append(d)
    return coeffs


class TestSampling:
    def test_sample_ntt_uniform_range(self):
        poly = mlkem._sample_ntt([bytes(32) + b"\x00\x01"])
        assert poly.shape == (1, N)
        assert ((0 <= poly) & (poly < Q)).all()

    def test_sample_ntt_second_squeeze(self):
        """A seed whose first squeeze is short (about 0.9% of seeds)
        reads on exactly as the loop form does, next to seeds that
        stop after one squeeze."""
        short = next(seed for seed in (bytes(32) + bytes([i, j])
                                       for i in range(256)
                                       for j in range(256))
                     if _first_squeeze_short(seed))
        seeds = [bytes(32) + b"\x00\x01", short, bytes(32) + b"\x01\x00"]
        batch = mlkem._sample_ntt(seeds)
        assert [row.tolist() for row in batch] == \
            [_sample_ntt_loop(seed) for seed in seeds]

    @pytest.mark.parametrize("eta", [2, 3])
    def test_cbd_range(self, eta):
        poly = mlkem._sample_cbd(bytes(range(32)), range(4), eta)
        assert poly.shape == (4, N)
        centred = np.where(poly > Q // 2, poly - Q, poly)
        assert ((-eta <= centred) & (centred <= eta)).all()
        assert (centred != 0).any()


class TestParameterSets:
    @pytest.mark.parametrize("params,ek,dk,ct", [
        (ML_KEM_512, 800, 1632, 768),
        (ML_KEM_768, 1184, 2400, 1088),
        (ML_KEM_1024, 1568, 3168, 1568),
    ])
    def test_standard_sizes(self, params, ek, dk, ct):
        assert params.ek_bytes == ek
        assert params.dk_bytes == dk
        assert params.ciphertext_bytes == ct

    @pytest.mark.parametrize("params", [ML_KEM_512, ML_KEM_1024],
                             ids=lambda p: p.name)
    def test_roundtrip_other_sets(self, params):
        kem = MLKEM(params)
        ek, dk = kem.key_gen(D_SEED, Z_SEED)
        key, ciphertext = kem.encaps(ek, bytes(32))
        assert kem.decaps(dk, ciphertext) == key


class TestKem:
    def test_generated_sizes(self, keypair768):
        ek, dk = keypair768
        assert len(ek) == 1184
        assert len(dk) == 2400

    def test_encaps_decaps(self, keypair768):
        ek, dk = keypair768
        kem = MLKEM(ML_KEM_768)
        key, ciphertext = kem.encaps(ek, bytes(32))
        assert len(key) == 32
        assert len(ciphertext) == 1088
        assert kem.decaps(dk, ciphertext) == key

    def test_keygen_deterministic_in_seeds(self):
        kem = MLKEM(ML_KEM_768)
        assert kem.key_gen(D_SEED, Z_SEED) == kem.key_gen(D_SEED, Z_SEED)
        assert kem.key_gen(D_SEED, Z_SEED) != \
            kem.key_gen(Z_SEED, D_SEED)

    def test_different_randomness_different_key(self, keypair768):
        ek, _ = keypair768
        kem = MLKEM(ML_KEM_768)
        key_a, ct_a = kem.encaps(ek, b"\x01" * 32)
        key_b, ct_b = kem.encaps(ek, b"\x02" * 32)
        assert key_a != key_b
        assert ct_a != ct_b

    def test_implicit_rejection_on_tamper(self, keypair768):
        ek, dk = keypair768
        kem = MLKEM(ML_KEM_768)
        key, ciphertext = kem.encaps(ek, bytes(32))
        for index in (0, 500, 1087):
            tampered = bytearray(ciphertext)
            tampered[index] ^= 1
            derived = kem.decaps(dk, bytes(tampered))
            assert derived != key
            assert len(derived) == 32

    def test_implicit_rejection_deterministic(self, keypair768):
        """The rejection key depends only on (z, ciphertext)."""
        ek, dk = keypair768
        kem = MLKEM(ML_KEM_768)
        _, ciphertext = kem.encaps(ek, bytes(32))
        tampered = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        assert kem.decaps(dk, tampered) == kem.decaps(dk, tampered)

    def test_wrong_decaps_key_gives_wrong_secret(self, keypair768):
        ek, _ = keypair768
        kem = MLKEM(ML_KEM_768)
        key, ciphertext = kem.encaps(ek, bytes(32))
        _, other_dk = kem.key_gen(b"\xaa" * 32, b"\xbb" * 32)
        assert kem.decaps(other_dk, ciphertext) != key

    def test_input_validation(self, keypair768):
        ek, dk = keypair768
        kem = MLKEM(ML_KEM_768)
        with pytest.raises(ValueError):
            kem.encaps(ek[:-1])
        with pytest.raises(ValueError):
            kem.encaps(ek, bytes(31))
        with pytest.raises(ValueError):
            kem.decaps(dk[:-1], bytes(1088))
        with pytest.raises(ValueError):
            kem.decaps(dk, bytes(1087))
        with pytest.raises(ValueError):
            kem.key_gen(bytes(31), bytes(32))

    def test_dk_hash_check_rejects_corrupt_embedded_ek(self, keypair768):
        """FIPS 203 section 7.3: H(dk[384k:768k+32]) must equal
        dk[768k+32:768k+64]."""
        ek, dk = keypair768
        kem = MLKEM(ML_KEM_768)
        _, ciphertext = kem.encaps(ek, bytes(32))
        for index in (384 * 3, 384 * 3 + 600, 768 * 3 + 31):
            bad = bytearray(dk)
            bad[index] ^= 0x80
            with pytest.raises(ValueError, match="hash check"):
                kem.decaps(bytes(bad), ciphertext)

    def test_unreduced_ek_rejected(self, keypair768):
        """FIPS 203 input validation: coefficients must be < q."""
        ek, _ = keypair768
        coeffs = [Q] + [0] * (N - 1)       # q itself is not reduced
        bad = pack_bits(_rows(coeffs), 12).tobytes() + ek[384:]
        with pytest.raises(ValueError):
            MLKEM(ML_KEM_768).encaps(bad)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32))
    def test_roundtrip_property(self, d, m):
        kem = MLKEM(ML_KEM_768)
        ek, dk = kem.key_gen(d, bytes(32))
        key, ciphertext = kem.encaps(ek, m)
        assert kem.decaps(dk, ciphertext) == key
