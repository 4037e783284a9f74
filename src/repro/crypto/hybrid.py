"""Hybrid Ed25519 + ML-DSA signatures.

The paper's PQ-enabled Keystone signs everything with *both* schemes so
that "security is always at least as that of Ed25519, while also ensuring
long-term security from quantum attackers" (Section III-B).  This module
implements that hybrid: a hybrid signature verifies only if both
component signatures verify over the same message.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ed25519
from .mldsa import ML_DSA_44, MLDSA

ED25519_PK_LEN = ed25519.PUBLIC_KEY_LEN
ED25519_SIG_LEN = ed25519.SIGNATURE_LEN


@dataclass(frozen=True)
class HybridPublicKey:
    """Concatenation-style hybrid public key."""

    ed25519: bytes
    mldsa: bytes

class HybridKeyPair:
    """A signing identity holding one Ed25519 and one ML-DSA key pair.

    Both keys are derived deterministically from their 32-byte seeds, so
    a device can persist two seeds (64 bytes) instead of expanded keys —
    the bootrom-size mitigation the paper describes.
    """

    def __init__(self, ed25519_seed: bytes, mldsa_seed: bytes):
        self._scheme = MLDSA(ML_DSA_44)
        self._ed_seed = bytes(ed25519_seed)
        self._mldsa_seed = bytes(mldsa_seed)
        # Keyed signing contexts: the Ed25519 comb precomputation and
        # the ML-DSA NTT-domain key expansion happen once here, not on
        # every sign() call.  Signatures stay byte-identical to the
        # one-shot module functions.
        self._ed_signer = ed25519.SigningKey(self._ed_seed)
        self._ed_public = self._ed_signer.public
        self._mldsa_public, self._mldsa_secret = (
            self._scheme.key_gen(self._mldsa_seed))
        self._mldsa_signer = self._scheme.signer(self._mldsa_secret)

    @property
    def public(self) -> HybridPublicKey:
        return HybridPublicKey(self._ed_public, self._mldsa_public)

    def sign(self, message: bytes) -> bytes:
        """Sign with both schemes; layout ``ed25519_sig || mldsa_sig``."""
        classical = self._ed_signer.sign(message)
        post_quantum = self._mldsa_signer.sign(message)
        return classical + post_quantum


def verify(public: HybridPublicKey, message: bytes,
           signature: bytes) -> bool:
    """True only if *both* component signatures verify."""
    expected = ED25519_SIG_LEN + ML_DSA_44.signature_bytes
    if len(signature) != expected:
        return False
    classical = signature[:ED25519_SIG_LEN]
    post_quantum = signature[ED25519_SIG_LEN:]
    if not ed25519.verify(public.ed25519, message, classical):
        return False
    # Cached verifier context (NTT-domain key expansion paid per key).
    try:
        verifier = MLDSA(ML_DSA_44).verifier(public.mldsa)

    except ValueError:
        return False
    return verifier.verify(message, post_quantum)
