"""ML-KEM (FIPS 203, a.k.a. CRYSTALS-Kyber) on the shared lattice engine.

Kyber is the HADES flagship case study (paper Table I: the Kyber-CPA
and Kyber-CCA design spaces; "We obtain the first arbitrary-order
masked implementation of CRYSTALs-Kyber") and the natural key-
establishment mechanism for CONVOLVE's long-term secure channels: a
remote party encapsulates a shared secret to a device's enclave after
verifying its attestation report.

This module implements the full standard from scratch: the incomplete
NTT over Z_3329[x]/(x^256+1), centred-binomial sampling, ciphertext
compression, the K-PKE core and the Fujisaki-Okamoto transform with
implicit rejection.  All three parameter sets are provided; the
CONVOLVE flows use :data:`ML_KEM_768`.

K-PKE runs on ``(rows, 256)`` int64 batches: the 7-layer NTT and the
bit packing are :mod:`repro.crypto.lattice`'s, shared with ML-DSA; the
base multiplication, sampling and compression here are batched the same
way.  The FIPS 203 loop forms of the NTT pair and the base
multiplication live with the tests, in ``tests/crypto_reference.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..runtime.memo import Memo
from .keccak import Shake128, sha3_256, sha3_512, shake256
from .lattice import NttRing, pack_bits, unpack_bits

Q = 3329
N = 256
ZETA = 17


def _bitrev7(value: int) -> int:
    result = 0
    for _ in range(7):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


#: zeta^bitrev7(i) — butterfly twiddles of the 7-layer incomplete NTT.
ZETAS = tuple(pow(ZETA, _bitrev7(i), Q) for i in range(128))
#: zeta^(2*bitrev7(i)+1) — the per-pair constants of BaseCaseMultiply.
GAMMAS = tuple(pow(ZETA, 2 * _bitrev7(i) + 1, Q) for i in range(128))

#: The 7-layer incomplete NTT: 128 degree-1 factors, n^-1 = 128^-1.
RING = NttRing(Q, ZETAS, 2)

_GAMMAS = np.array(GAMMAS, dtype=np.int64)


def _base_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BaseCaseMultiply of every degree-1 factor pair (FIPS 203
    Algorithm 12), broadcast over leading axes; unreduced (< 2q^2)."""
    a0, a1 = a[..., 0::2], a[..., 1::2]
    b0, b1 = b[..., 0::2], b[..., 1::2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    out[..., 0::2] = a0 * b0 + a1 * b1 % Q * _GAMMAS
    out[..., 1::2] = a0 * b1 + a1 * b0
    return out


def _matvec(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """NTT-domain ``(r, k, 256)`` matrix times ``(k, 256)`` vector."""
    return _base_mul(matrix, vec[None]).sum(axis=1) % Q


# ---------------------------------------------------------------------------
# Compression and byte encodings (on ``(rows, 256)`` int64 batches)


def _compress(arr: np.ndarray, bits: int) -> np.ndarray:
    """Compress_d: round(2^d / q * x) mod 2^d."""
    return ((arr << bits) + Q // 2) // Q % (1 << bits)


def _decompress(arr: np.ndarray, bits: int) -> np.ndarray:
    """Decompress_d: round(q / 2^d * y)."""
    return (arr * Q + (1 << (bits - 1))) >> bits


def _encode(arr: np.ndarray, bits: int) -> bytes:
    """ByteEncode_d of every row, concatenated."""
    return pack_bits(arr, bits).tobytes()


# ---------------------------------------------------------------------------
# Sampling


def _sample_ntt(seeds: list) -> np.ndarray:
    """SampleNTT (FIPS 203 Algorithm 7) of each seed: 12-bit rejection
    over 504-byte SHAKE128 squeezes until 256 values are accepted."""
    xofs = [Shake128(seed) for seed in seeds]
    cand = unpack_bits(b"".join(xof.read(504) for xof in xofs), len(seeds),
                       12)
    keep = cand < Q
    out = np.empty((len(seeds), N), dtype=np.int64)
    full = keep.sum(axis=1) >= N
    first = keep[full] & (np.cumsum(keep[full], axis=1) <= N)
    out[full] = cand[full][first].reshape(-1, N)
    for row in np.nonzero(~full)[0]:    # about 1% of seeds squeeze again
        accepted = cand[row][keep[row]]
        while len(accepted) < N:
            more = unpack_bits(xofs[row].read(504), 1, 12)[0]
            accepted = np.concatenate((accepted, more[more < Q]))
        out[row] = accepted[:N]
    return out


def _sample_cbd(seed: bytes, nonces: range, eta: int) -> np.ndarray:
    """SamplePolyCBD_eta(PRF_eta(seed, nonce)) for each nonce."""
    data = b"".join(_prf(seed, nonce, eta) for nonce in nonces)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little")
    halves = bits.reshape(len(nonces), N, 2, eta).sum(axis=3,
                                                      dtype=np.int64)
    return (halves[:, :, 0] - halves[:, :, 1]) % Q


def _prf(seed: bytes, nonce: int, eta: int) -> bytes:
    return shake256(seed + bytes([nonce]), 64 * eta)


def _g(data: bytes) -> tuple:
    digest = sha3_512(data)
    return digest[:32], digest[32:]


def _j(data: bytes) -> bytes:
    return shake256(data, 32)


# ---------------------------------------------------------------------------
# Parameter sets


@dataclass(frozen=True)
class MLKEMParams:
    """One FIPS 203 parameter set."""

    name: str
    k: int
    eta1: int
    eta2: int
    du: int
    dv: int

    @property
    def ek_bytes(self) -> int:
        return 384 * self.k + 32

    @property
    def dk_bytes(self) -> int:
        return 768 * self.k + 96

    @property
    def ciphertext_bytes(self) -> int:
        return 32 * (self.du * self.k + self.dv)


ML_KEM_512 = MLKEMParams("ML-KEM-512", k=2, eta1=3, eta2=2, du=10, dv=4)
ML_KEM_768 = MLKEMParams("ML-KEM-768", k=3, eta1=2, eta2=2, du=10, dv=4)
ML_KEM_1024 = MLKEMParams("ML-KEM-1024", k=4, eta1=2, eta2=2, du=11,
                          dv=5)

KEM_PARAMETER_SETS = {p.name: p for p in (ML_KEM_512, ML_KEM_768,
                                          ML_KEM_1024)}

SHARED_SECRET_LEN = 32


# ---------------------------------------------------------------------------
# K-PKE (the CPA-secure core — the paper's "Kyber-CPA")


def _expand_matrix(rho: bytes, k: int, transpose: bool = False) -> np.ndarray:
    """Â as a ``(k, k, 256)`` batch, entry (i, j) SampleNTT(rho || j ||
    i); with ``transpose``, Âᵀ."""
    seeds = [rho + (bytes([i, j]) if transpose else bytes([j, i]))
             for i in range(k) for j in range(k)]
    return _sample_ntt(seeds).reshape(k, k, N)


def _pke_keygen(d: bytes, params: MLKEMParams) -> tuple:
    k = params.k
    rho, sigma = _g(d + bytes([k]))
    a_hat = _expand_matrix(rho, k)
    se_hat = RING.ntt(_sample_cbd(sigma, range(2 * k), params.eta1))
    s_hat, e_hat = se_hat[:k], se_hat[k:]
    t_hat = (_matvec(a_hat, s_hat) + e_hat) % Q
    return _encode(t_hat, 12) + rho, _encode(s_hat, 12)


def _pke_encrypt(t_hat: np.ndarray, rho: bytes, message: bytes,
                 randomness: bytes, params: MLKEMParams) -> bytes:
    """K-PKE.Encrypt under the decoded key ``(t_hat, rho)``."""
    k = params.k
    y = _sample_cbd(randomness, range(k), params.eta1)
    e = _sample_cbd(randomness, range(k, 2 * k + 1), params.eta2)
    # Rows 0..k-1 are Âᵀŷ (→ u), row k is t̂ᵀŷ (→ v): one inverse NTT.
    lhs = np.concatenate((_expand_matrix(rho, k, transpose=True),
                          t_hat[None]))
    uv = RING.intt(_matvec(lhs, RING.ntt(y))) + e
    uv[k] += _decompress(unpack_bits(message, 1, 1)[0], 1)
    uv %= Q
    return (_encode(_compress(uv[:k], params.du), params.du)
            + _encode(_compress(uv[k:], params.dv), params.dv))


def _pke_decrypt(dk: bytes, ciphertext: bytes,
                 params: MLKEMParams) -> bytes:
    k = params.k
    split = 32 * params.du * k
    u = _decompress(unpack_bits(ciphertext[:split], k, params.du),
                    params.du)
    v = _decompress(unpack_bits(ciphertext[split:], 1, params.dv),
                    params.dv)
    s_hat = unpack_bits(dk, k, 12)
    w = (v - RING.intt(_matvec(s_hat[None], RING.ntt(u)))) % Q
    return _encode(_compress(w, 1), 1)


# ---------------------------------------------------------------------------
# The KEM (FO transform with implicit rejection)

#: ``(shared_secret, ciphertext)`` of :meth:`MLKEM.encaps`, keyed on the
#: exact ``(params, ek, m)`` once ``m`` is drawn: a call that draws
#: ``m`` from the OS never hits.
ENCAPS_MEMO = Memo(maxsize=32)
#: Shared secrets of :meth:`MLKEM.decaps`, keyed on the exact ``(params,
#: dk, ciphertext)``, implicit rejections included.
DECAPS_MEMO = Memo(maxsize=32)


class MLKEM:
    """An ML-KEM instance for one parameter set.

    >>> kem = MLKEM(ML_KEM_768)
    >>> ek, dk = kem.key_gen(bytes(32), bytes(32))
    >>> key, ct = kem.encaps(ek, bytes(32))
    >>> kem.decaps(dk, ct) == key
    True
    """

    def __init__(self, params: MLKEMParams = ML_KEM_768):
        self.params = params

    def key_gen(self, d: bytes = None, z: bytes = None) -> tuple:
        """Generate (encapsulation key, decapsulation key).

        Deterministic in the 32-byte seeds ``d`` and ``z`` — like
        ML-DSA, a device can store 64 bytes instead of 2400.
        """
        d = os.urandom(32) if d is None else d
        z = os.urandom(32) if z is None else z
        if len(d) != 32 or len(z) != 32:
            raise ValueError("ML-KEM seeds must be 32 bytes")
        ek, dk_pke = _pke_keygen(d, self.params)
        dk = dk_pke + ek + sha3_256(ek) + z
        return ek, dk

    def encaps(self, ek: bytes, m: bytes = None) -> tuple:
        """Encapsulate: returns (shared_secret, ciphertext), memoized in
        :data:`ENCAPS_MEMO`."""
        m = os.urandom(32) if m is None else m
        return ENCAPS_MEMO.get_or_build(
            (self.params, bytes(ek), bytes(m)),
            lambda: self._encaps(ek, m))

    def _encaps(self, ek: bytes, m: bytes) -> tuple:
        if len(ek) != self.params.ek_bytes:
            raise ValueError(f"{self.params.name} encapsulation key "
                             f"must be {self.params.ek_bytes} bytes")
        # Modulus check (FIPS 203 input validation): every encoded
        # coefficient must already be reduced.
        k = self.params.k
        t_hat = unpack_bits(ek[:384 * k], k, 12)
        if (t_hat >= Q).any():
            raise ValueError("encapsulation key not reduced mod q")
        if len(m) != 32:
            raise ValueError("encapsulation randomness must be 32 bytes")
        key, randomness = _g(m + sha3_256(ek))
        ciphertext = _pke_encrypt(t_hat, ek[384 * k:], m, randomness,
                                  self.params)
        return key, ciphertext

    def decaps(self, dk: bytes, ciphertext: bytes) -> bytes:
        """Decapsulate; implicit rejection on malformed ciphertexts.
        Memoized in :data:`DECAPS_MEMO`."""
        return DECAPS_MEMO.get_or_build(
            (self.params, bytes(dk), bytes(ciphertext)),
            lambda: self._decaps(dk, ciphertext))

    def _decaps(self, dk: bytes, ciphertext: bytes) -> bytes:
        params = self.params
        if len(dk) != params.dk_bytes:
            raise ValueError(f"{params.name} decapsulation key must be "
                             f"{params.dk_bytes} bytes")
        if len(ciphertext) != params.ciphertext_bytes:
            raise ValueError(f"{params.name} ciphertext must be "
                             f"{params.ciphertext_bytes} bytes")
        k = params.k
        dk_pke = dk[:384 * k]
        ek = dk[384 * k:768 * k + 32]
        h_ek = dk[768 * k + 32:768 * k + 64]
        z = dk[768 * k + 64:]
        # Hash check (FIPS 203 section 7.3 input checking).
        if sha3_256(ek) != h_ek:
            raise ValueError(f"{params.name} decapsulation key fails "
                             "its hash check")
        m_prime = _pke_decrypt(dk_pke, ciphertext, params)
        key_prime, randomness_prime = _g(m_prime + h_ek)
        rejection_key = _j(z + ciphertext)
        ciphertext_prime = _pke_encrypt(
            unpack_bits(ek[:384 * k], k, 12), ek[384 * k:], m_prime,
            randomness_prime, params)
        if ciphertext != ciphertext_prime:
            return rejection_key        # implicit rejection
        return key_prime
