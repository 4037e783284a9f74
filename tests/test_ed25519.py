"""Tests for Ed25519 against RFC 8032 known-answer vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519


# (secret, public, message, signature) from RFC 8032 section 7.1.
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
]


class TestKnownAnswer:
    @pytest.mark.parametrize("secret,public,message,signature",
                             RFC8032_VECTORS)
    def test_public_key_derivation(self, secret, public, message,
                                   signature):
        assert ed25519.public_key(bytes.fromhex(secret)).hex() == public

    @pytest.mark.parametrize("secret,public,message,signature",
                             RFC8032_VECTORS)
    def test_signature(self, secret, public, message, signature):
        sig = ed25519.sign(bytes.fromhex(secret), bytes.fromhex(message))
        assert sig.hex() == signature

    @pytest.mark.parametrize("secret,public,message,signature",
                             RFC8032_VECTORS)
    def test_verify(self, secret, public, message, signature):
        assert ed25519.verify(bytes.fromhex(public),
                              bytes.fromhex(message),
                              bytes.fromhex(signature))


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64))
    def test_sign_verify_roundtrip(self, seed, message):
        public = ed25519.public_key(seed)
        sig = ed25519.sign(seed, message)
        assert len(sig) == 64
        assert ed25519.verify(public, message, sig)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=32, max_size=32))
    def test_wrong_message_rejected(self, seed):
        public = ed25519.public_key(seed)
        sig = ed25519.sign(seed, b"genuine")
        assert not ed25519.verify(public, b"forged", sig)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 256) - 1),
           st.sampled_from([2, ed25519._WNAF_POINT, ed25519._WNAF_BASE,
                            ed25519._WNAF_BATCH]))
    def test_sparse_wnaf_recoding(self, scalar, width):
        pairs = ed25519._wnaf(scalar, width)
        assert sum(digit << position for position, digit in pairs) == scalar
        for _, digit in pairs:
            assert digit % 2 == 1 and abs(digit) < 1 << (width - 1)
        positions = [position for position, _ in pairs]
        assert all(b - a >= width for a, b in zip(positions,
                                                  positions[1:]))

    def test_signing_is_deterministic(self):
        seed = bytes(range(32))
        assert ed25519.sign(seed, b"m") == ed25519.sign(seed, b"m")

    def test_tampered_signature_rejected(self):
        seed = bytes(range(32))
        public = ed25519.public_key(seed)
        sig = bytearray(ed25519.sign(seed, b"m"))
        sig[10] ^= 1
        assert not ed25519.verify(public, b"m", bytes(sig))

    def test_malformed_inputs_rejected_without_exception(self):
        assert not ed25519.verify(b"short", b"m", bytes(64))
        assert not ed25519.verify(bytes(32), b"m", b"short")
        assert not ed25519.verify(bytes(32), b"m", bytes(64))

    def test_high_scalar_rejected(self):
        # s >= L must be rejected (malleability check).
        seed = bytes(range(32))
        public = ed25519.public_key(seed)
        sig = bytearray(ed25519.sign(seed, b"m"))
        s = int.from_bytes(sig[32:], "little") + ed25519.L
        sig[32:] = s.to_bytes(32, "little")
        assert not ed25519.verify(public, b"m", bytes(sig))

    def test_secret_length_enforced(self):
        with pytest.raises(ValueError):
            ed25519.public_key(bytes(31))
        with pytest.raises(ValueError):
            ed25519.sign(bytes(33), b"m")


class TestKeyPair:
    def test_keypair_wrapper(self):
        pair = ed25519.SigningKey(bytes(range(32)))
        sig = pair.sign(b"msg")
        assert ed25519.verify(pair.public, b"msg", sig)
        assert not ed25519.verify(pair.public, b"other", sig)
        assert pair.public == ed25519.public_key(bytes(range(32)))


class TestFieldInverse:
    """``_inv`` (extended Euclid) is Fermat's ``x^(P-2) mod P``."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=ed25519.P - 1))
    def test_matches_fermat(self, x):
        P = ed25519.P
        assert ed25519._inv(x) == pow(x, P - 2, P)

    @pytest.mark.parametrize("x", [0, 1, 2, ed25519.P - 1, ed25519.P])
    def test_edge_values_match_fermat(self, x):
        P = ed25519.P
        assert ed25519._inv(x) == pow(x, P - 2, P)
        assert ed25519._inv(x) * x % P == (1 if x % P else 0)
