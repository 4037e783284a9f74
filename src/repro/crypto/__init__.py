"""Cryptographic substrate for the CONVOLVE reproduction.

Everything the post-quantum TEE and the HADES case studies rely on,
implemented from scratch in Python and numpy:

* :mod:`~repro.crypto.keccak` — SHA3-256/512, SHAKE128/256 (on :mod:`hashlib`)
* :mod:`~repro.crypto.aes` — AES-128/192/256 + CTR + encrypt-then-MAC AEAD
* :mod:`~repro.crypto.ed25519` — RFC 8032 signatures (Keystone default)
* :mod:`~repro.crypto.lattice` — the numpy NTT and bit packing both
  lattice schemes run on
* :mod:`~repro.crypto.mldsa` — FIPS 204 ML-DSA-44/65/87 (the PQ addition)
* :mod:`~repro.crypto.mlkem` — FIPS 203 ML-KEM-512/768/1024 (Kyber)
* :mod:`~repro.crypto.hybrid` — Ed25519 & ML-DSA hybrid signatures
* :mod:`~repro.crypto.kdf` — SHAKE256 key derivation

These are behavioural references for the simulator, not hardened
constant-time implementations.  The hot paths — windowed Ed25519
scalar multiplication, ML-DSA's keyed signing/verification contexts and
ML-KEM's K-PKE on the batched int64 NTT of
:mod:`~repro.crypto.lattice`, and the batched AES T-table gather — and
the :mod:`hashlib` SHA-3 are pinned byte-identical to the loop-form
references in ``tests/crypto_reference.py`` by KAT and hypothesis parity
suites (``tests/test_crypto_fastpaths.py``, ``tests/test_lattice_kat.py``).
Those references live with the tests; production code never imports
them.

The deterministic operations fault campaigns repeat — Ed25519 signing,
key derivation and verification, ML-KEM encapsulation and
decapsulation, AES-CTR — are memoized on their exact input bytes, each
in a bounded process-wide :class:`~repro.runtime.memo.Memo` next to the
function it serves; :data:`RESULT_MEMOS` lists them all.
"""

from .keccak import sha3_256, sha3_512, shake256
from .aes import AES, aes_ctr, open_aead, seal_aead
from .ed25519 import SigningKey
from .mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from .mlkem import ML_KEM_512, ML_KEM_768, ML_KEM_1024, MLKEM
from .hybrid import HybridKeyPair, HybridPublicKey
from .kdf import derive_key, derive_seed_pair
from . import aes, ed25519, mlkem

#: Every process-wide result memo of this package.  Fault and
#: adversary campaigns clear them at their start, so a campaign's cost
#: is its own.
RESULT_MEMOS = (ed25519.VERDICT_MEMO, ed25519.SIGN_MEMO,
                ed25519.CONTEXT_MEMO, ed25519.PUBLIC_KEY_MEMO,
                mlkem.ENCAPS_MEMO, mlkem.DECAPS_MEMO, aes.CTR_MEMO)

__all__ = [
    "sha3_256", "sha3_512", "shake256",
    "AES", "aes_ctr", "seal_aead", "open_aead",
    "SigningKey",
    "MLDSA", "ML_DSA_44", "ML_DSA_65", "ML_DSA_87",
    "MLKEM", "ML_KEM_512", "ML_KEM_768", "ML_KEM_1024",
    "HybridKeyPair", "HybridPublicKey",
    "derive_key", "derive_seed_pair",
    "RESULT_MEMOS",
]
