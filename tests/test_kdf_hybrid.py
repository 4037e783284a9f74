"""Tests for key derivation and hybrid Ed25519+ML-DSA signatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519, hybrid, kdf
from repro.crypto.mldsa import ML_DSA_44


class TestKdf:
    def test_deterministic(self):
        assert kdf.derive_key(b"s", "label") == kdf.derive_key(b"s", "label")

    def test_label_separation(self):
        assert kdf.derive_key(b"s", "a") != kdf.derive_key(b"s", "b")

    def test_context_separation(self):
        assert kdf.derive_key(b"s", "a", b"x") != \
            kdf.derive_key(b"s", "a", b"y")

    def test_secret_separation(self):
        assert kdf.derive_key(b"s1", "a") != kdf.derive_key(b"s2", "a")

    def test_length(self):
        assert len(kdf.derive_key(b"s", "a", length=48)) == 48

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            kdf.derive_key(b"s", "")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_no_boundary_confusion(self, a, b):
        """Length-prefixing: moving bytes between fields changes output."""
        if a + b == b"" or not a:
            return
        moved = kdf.derive_key(a[:-1], "l", a[-1:] + b)
        original = kdf.derive_key(a, "l", b)
        assert moved != original

    def test_seed_pair_independent(self):
        classical, post_quantum = kdf.derive_seed_pair(b"root", "device")
        assert len(classical) == 32
        assert len(post_quantum) == 32
        assert classical != post_quantum


class TestHybrid:
    @pytest.fixture(scope="class")
    def pair(self):
        return hybrid.HybridKeyPair(bytes(32), bytes(range(32)))

    def test_sign_verify(self, pair):
        sig = pair.sign(b"report")
        assert len(sig) == 64 + ML_DSA_44.signature_bytes
        assert hybrid.verify(pair.public, b"report", sig)

    def test_signature_length(self, pair):
        assert len(pair.sign(b"m")) == 64 + ML_DSA_44.signature_bytes

    def test_wrong_message_rejected(self, pair):
        sig = pair.sign(b"report")
        assert not hybrid.verify(pair.public, b"tampered", sig)

    def test_classical_half_tamper_rejected(self, pair):
        sig = bytearray(pair.sign(b"report"))
        sig[0] ^= 1
        assert not hybrid.verify(pair.public, b"report", bytes(sig))

    def test_pq_half_tamper_rejected(self, pair):
        sig = bytearray(pair.sign(b"report"))
        sig[70] ^= 1
        assert not hybrid.verify(pair.public, b"report", bytes(sig))

    def test_wrong_length_rejected(self, pair):
        assert not hybrid.verify(pair.public, b"report", bytes(10))

    def test_both_schemes_must_pass(self, pair):
        """A valid Ed25519 half glued to a zeroed PQ half must fail."""
        sig = pair.sign(b"m")
        frankensig = sig[:64] + bytes(ML_DSA_44.signature_bytes)
        assert not hybrid.verify(pair.public, b"m", frankensig)

    def test_deterministic_in_seeds(self):
        a = hybrid.HybridKeyPair(bytes(32), bytes(32))
        b = hybrid.HybridKeyPair(bytes(32), bytes(32))
        assert a.public == b.public

    def test_ed25519_component_is_standard(self, pair):
        """The classical half must verify as a plain Ed25519 signature."""
        sig = pair.sign(b"m")
        assert ed25519.verify(pair.public.ed25519, b"m", sig[:64])
