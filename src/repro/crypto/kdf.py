"""Key-derivation helpers built on SHAKE256.

The Keystone boot flow (paper Section III-B) derives the security
monitor's signing keys from the unique device key and the SM measurement,
and sealing keys from the SM secrets plus the enclave hash.  All of those
derivations funnel through :func:`derive_key`, a domain-separated
SHAKE256 KDF.
"""

from __future__ import annotations

from .keccak import shake256


def derive_key(secret: bytes, label: str, context: bytes = b"",
               length: int = 32) -> bytes:
    """Derive ``length`` bytes bound to ``label`` and ``context``.

    The encoding is injective: every field is length-prefixed, so distinct
    (secret, label, context) triples can never collide.
    """
    if not label:
        raise ValueError("derivation label must be non-empty")
    encoded_label = label.encode("utf-8")
    material = (len(secret).to_bytes(4, "big") + secret
                + len(encoded_label).to_bytes(4, "big") + encoded_label
                + len(context).to_bytes(4, "big") + context)
    return shake256(b"convolve-kdf-v1" + material, length)


def derive_seed_pair(secret: bytes, label: str) -> tuple:
    """Derive two independent 32-byte seeds (classical, post-quantum).

    Used to expand one root secret into an Ed25519 seed and an ML-DSA
    seed without the two ever sharing bytes.
    """
    material = derive_key(secret, label, length=64)

    return material[:32], material[32:]
