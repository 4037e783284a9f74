"""Tests for the from-scratch ML-DSA (FIPS 204) implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import mldsa
from repro.crypto.mldsa import (ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA, N,
                                Q)
from repro.obs.perf import PERF, counting

import crypto_reference as ref

SEED = bytes(range(32))


@pytest.fixture(scope="module")
def keypair44():
    return MLDSA(ML_DSA_44).key_gen(SEED)


def _mint_with_perf_off(build):
    was_enabled = PERF.enabled
    PERF.enabled = False
    try:
        return build()
    finally:
        PERF.enabled = was_enabled


def _ntt(coeffs: list) -> list:
    return mldsa.RING.ntt(np.array([coeffs], dtype=np.int64))[0].tolist()


def _intt(coeffs: list) -> list:
    return mldsa.RING.intt(np.array([coeffs], dtype=np.int64))[0].tolist()


class TestNTT:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, Q - 1), min_size=N, max_size=N))
    def test_ntt_roundtrip(self, coeffs):
        assert _intt(_ntt(coeffs)) == coeffs
        assert ref.mldsa_intt(ref.mldsa_ntt(coeffs)) == coeffs

    def test_ntt_multiplication_matches_schoolbook(self):
        import random
        rng = random.Random(7)
        a = [rng.randrange(Q) for _ in range(N)]
        b = [rng.randrange(Q) for _ in range(N)]
        fast = _intt(ref.ntt_mul(_ntt(a), _ntt(b)))
        reference = ref.mldsa_intt(ref.ntt_mul(
            ref.mldsa_ntt(a), ref.mldsa_ntt(b)))
        slow = [0] * N
        for i in range(N):
            if not a[i]:
                continue
            for j in range(N):
                index = i + j
                term = a[i] * b[j]
                if index >= N:  # x^256 = -1
                    slow[index - N] = (slow[index - N] - term) % Q
                else:
                    slow[index] = (slow[index] + term) % Q
        assert fast == reference == slow

    def test_ntt_of_constant_one(self):
        one = [1] + [0] * (N - 1)
        assert _ntt(one) == ref.mldsa_ntt(one) == [1] * N

    def test_zetas_are_roots_of_unity(self):
        assert all(pow(z, 512, Q) == 1 for z in mldsa.ZETAS[1:])


class TestRounding:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, Q - 1))
    def test_power2round_reconstructs(self, value):
        r1, r0 = mldsa.power2round(value)
        assert (r1 * (1 << mldsa.D) + r0) % Q == value
        assert -(1 << (mldsa.D - 1)) < r0 <= (1 << (mldsa.D - 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, Q - 1))
    def test_decompose_reconstructs(self, value):
        gamma2 = ML_DSA_44.gamma2
        r1, r0 = ref.decompose(value, gamma2)
        assert (r1 * 2 * gamma2 + r0) % Q == value
        assert 0 <= r1 < (Q - 1) // (2 * gamma2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, Q - 1),
           st.integers(-ML_DSA_44.gamma2 + 1, ML_DSA_44.gamma2 - 1))
    def test_hint_recovers_high_bits(self, r, z):
        """The defining property: UseHint(MakeHint(z, r), r) = HighBits(r+z)."""
        gamma2 = ML_DSA_44.gamma2
        hint = ref.make_hint(z % Q, r, gamma2)
        assert ref.use_hint(hint, r, gamma2) == \
            ref.high_bits((r + z) % Q, gamma2)

    def test_centered_range(self):
        assert mldsa.centered(0) == 0
        assert mldsa.centered(Q - 1) == -1
        assert mldsa.centered(Q // 2) == Q // 2


class TestPacking:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1023), min_size=N, max_size=N))
    def test_simple_bit_pack_roundtrip(self, coeffs):
        packed = mldsa.simple_bit_pack(coeffs, 1023)
        assert mldsa.simple_bit_unpack(packed, 1023) == coeffs

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=N, max_size=N))
    def test_bit_pack_roundtrip_eta(self, coeffs):
        as_mod_q = [c % Q for c in coeffs]
        packed = mldsa.bit_pack(as_mod_q, 2, 2)
        assert mldsa.bit_unpack(packed, 2, 2) == as_mod_q

    def test_hint_pack_roundtrip(self):
        hints = [[0] * N for _ in range(ML_DSA_44.k)]
        hints[0][3] = hints[0][200] = hints[2][77] = 1
        packed = mldsa.hint_bit_pack(hints, ML_DSA_44)
        assert len(packed) == ML_DSA_44.omega + ML_DSA_44.k
        assert ref.hint_bit_unpack(packed, ML_DSA_44) == hints

    def test_hint_unpack_rejects_unsorted_indices(self):
        hints = [[0] * N for _ in range(ML_DSA_44.k)]
        hints[0][3] = hints[0][200] = 1
        packed = bytearray(mldsa.hint_bit_pack(hints, ML_DSA_44))
        packed[0], packed[1] = packed[1], packed[0]
        assert ref.hint_bit_unpack(bytes(packed), ML_DSA_44) is None

    def test_hint_unpack_rejects_nonzero_padding(self):
        packed = bytearray(ML_DSA_44.omega + ML_DSA_44.k)
        packed[5] = 9  # index data beyond the cumulative counts
        assert ref.hint_bit_unpack(bytes(packed), ML_DSA_44) is None


class TestSampling:
    def test_sample_in_ball_weight(self):
        c = mldsa.sample_in_ball(b"\x01" * 32, ML_DSA_44)
        nonzero = [x for x in c if x != 0]
        assert len(nonzero) == ML_DSA_44.tau
        assert all(x in (1, Q - 1) for x in nonzero)

    def test_rej_ntt_poly_uniform_range(self):
        poly = mldsa._rej_ntt_poly(b"seed" + bytes(30))
        assert len(poly) == N
        assert all(0 <= c < Q for c in poly)

    @pytest.mark.parametrize("eta", [2, 4])
    def test_rej_bounded_poly_range(self, eta):
        poly = mldsa._rej_bounded_poly(b"sd" + bytes(64), eta)
        assert len(poly) == N
        assert all(mldsa.centered(c) in range(-eta, eta + 1) for c in poly)

    def test_expand_mask_range(self):
        p = ML_DSA_44
        y = ref.expand_mask(bytes(64), 0, p)
        assert len(y) == p.l
        for poly in y:
            assert all(-p.gamma1 < mldsa.centered(c) <= p.gamma1
                       for c in poly)


class TestParameterSets:
    @pytest.mark.parametrize("params,pk,sk,sig", [
        (ML_DSA_44, 1312, 2560, 2420),
        (ML_DSA_65, 1952, 4032, 3309),
        (ML_DSA_87, 2592, 4896, 4627),
    ])
    def test_standard_sizes(self, params, pk, sk, sig):
        assert params.public_key_bytes == pk
        assert params.secret_key_bytes == sk
        assert params.signature_bytes == sig

    def test_beta(self):
        assert ML_DSA_44.beta == 78


class TestScheme:
    def test_sizes_of_generated_material(self, keypair44):
        public, secret = keypair44
        assert len(public) == 1312
        assert len(secret) == 2560

    def test_sign_verify(self, keypair44):
        public, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        sig = scheme.sign(secret, b"attestation report")
        assert len(sig) == 2420
        assert scheme.verify(public, b"attestation report", sig)

    def test_keygen_deterministic_in_seed(self):
        scheme = MLDSA(ML_DSA_44)
        assert scheme.key_gen(SEED) == scheme.key_gen(SEED)
        assert scheme.key_gen(SEED) != scheme.key_gen(bytes(32))

    def test_signing_deterministic(self, keypair44):
        _, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        assert scheme.sign(secret, b"m") == scheme.sign(secret, b"m")


    def test_wrong_message_rejected(self, keypair44):
        public, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        sig = scheme.sign(secret, b"genuine")
        assert not scheme.verify(public, b"forged", sig)

    def test_tampered_signature_rejected(self, keypair44):
        public, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        sig = bytearray(scheme.sign(secret, b"m"))
        for index in (0, 100, 2400):
            bad = bytearray(sig)
            bad[index] ^= 1
            assert not scheme.verify(public, b"m", bytes(bad))

    def test_wrong_length_signature_rejected(self, keypair44):
        public, _ = keypair44
        assert not MLDSA(ML_DSA_44).verify(public, b"m", bytes(100))

    def test_wrong_public_key_rejected(self, keypair44):
        public, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        sig = scheme.sign(secret, b"m")
        other_public, _ = scheme.key_gen(b"\x01" * 32)
        assert not scheme.verify(other_public, b"m", sig)

    def test_context_separation(self, keypair44):
        public, secret = keypair44
        scheme = MLDSA(ML_DSA_44)
        sig = scheme.sign(secret, b"m", context=b"boot")
        assert scheme.verify(public, b"m", sig, context=b"boot")
        assert not scheme.verify(public, b"m", sig, context=b"attest")

    def test_context_length_limit(self, keypair44):
        _, secret = keypair44
        with pytest.raises(ValueError):
            MLDSA(ML_DSA_44).sign(secret, b"m", context=bytes(256))

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            MLDSA(ML_DSA_44).key_gen(bytes(31))

    def test_trace_reports_stack_estimate(self, keypair44):
        _, secret = keypair44
        trace = {}
        MLDSA(ML_DSA_44).sign(secret, b"m", _trace=trace)
        assert trace["attempts"] >= 1
        # The paper: 8 KB default stack corrupts, 128 KB suffices.
        assert trace["peak_stack_bytes"] > 8 * 1024
        assert trace["peak_stack_bytes"] < 128 * 1024

    def test_sk_pk_decode_length_checks(self):
        with pytest.raises(ValueError):
            mldsa.pk_decode(bytes(10), ML_DSA_44)
        with pytest.raises(ValueError):
            mldsa.sk_decode(bytes(10), ML_DSA_44)

    @pytest.mark.parametrize("params", [ML_DSA_65, ML_DSA_87],
                             ids=lambda p: p.name)
    def test_other_parameter_sets_roundtrip(self, params):
        scheme = MLDSA(params)
        public, secret = scheme.key_gen(SEED)
        sig = scheme.sign(secret, b"msg")
        assert len(sig) == params.signature_bytes
        assert scheme.verify(public, b"msg", sig)


class TestContextMemoCounters:
    """The context memo is process-wide, so its hits replay the build's
    PERF delta — including for entries first built with PERF off."""

    def test_key_gen_minted_with_perf_off(self):
        scheme = MLDSA(ML_DSA_44)
        seed = b"\x5a" * 32
        minted = _mint_with_perf_off(lambda: scheme.key_gen(seed))
        with counting() as cold:
            assert scheme.key_gen(seed) == minted
        cold_delta = cold.delta()
        with counting() as warm:
            assert scheme.key_gen(seed) == minted
        warm_delta = warm.delta()
        with counting() as real:
            scheme._key_gen(seed)
        assert cold_delta["crypto.mldsa.key_gen"] == 1
        assert warm_delta == cold_delta == real.delta()

    def test_verifier_minted_with_perf_off(self, monkeypatch):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x5b" * 32)
        signature = scheme.sign(secret, b"memo")

        class CountedVerifier(mldsa.MLDSAVerifier):
            # A real verifier build ticks nothing (its NTTs are
            # uncounted precomputation); tick one event so the replay
            # has something to carry.
            def __init__(self, params, key):
                if PERF.enabled:
                    PERF.inc("test.mldsa.verifier_builds")
                super().__init__(params, key)

        monkeypatch.setattr(mldsa, "MLDSAVerifier", CountedVerifier)
        _mint_with_perf_off(lambda: scheme.verifier(public))
        with counting() as cold:
            assert scheme.verify(public, b"memo", signature)
        cold_delta = cold.delta()
        with counting() as warm:
            assert scheme.verify(public, b"memo", signature)
        assert cold_delta["test.mldsa.verifier_builds"] == 1
        assert cold_delta["crypto.mldsa.verify"] == 1
        assert warm.delta() == cold_delta
