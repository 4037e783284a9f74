"""ML-DSA (FIPS 204, a.k.a. CRYSTALS-Dilithium).

The CONVOLVE post-quantum TEE (paper Section III-B, Table III) adds
ML-DSA-44 next to Ed25519 for measured boot, attestation-report signing
and sealing-key derivation.  This module implements the full standard from
scratch: NTT arithmetic over Z_q[x]/(x^256+1), rejection sampling,
hint-based signature compression and all bit-packed encodings.  All three
parameter sets are provided; the TEE uses :data:`ML_DSA_44`.

The deterministic signing variant is the default (``rnd`` = 32 zero
bytes), matching what an enclave without a DRBG would use.

Two practical observations from the paper are modelled faithfully:

* the private key can be stored as a 32-byte seed and regenerated at boot
  (:func:`MLDSA.key_gen` is deterministic in the seed), and
* signing needs far more working memory than Ed25519 — the
  :attr:`MLDSA.signing_stack_bytes` estimate drives the security-monitor
  stack sizing experiment (8 KB default corrupts, 128 KB suffices).

The signing/verification hot loops run on exact int64 numpy kernels
(batched NTTs from :mod:`repro.crypto.lattice`, shared with ML-KEM,
pointwise products and decompositions mod q); every
intermediate fits in 64 bits, so they are bit-identical to the scalar
loop forms in ``tests/crypto_reference.py`` (``mldsa_ntt``,
``mldsa_sign``, ...), pinned by the parity suite in
``tests/test_crypto_fastpaths.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from ..obs import TELEMETRY
from ..obs.perf import PERF
from ..runtime.memo import Memo
from .keccak import Shake128, Shake256, shake256
from .lattice import NttRing, pack_bits, unpack_bits

Q = 8380417
N = 256
ZETA = 1753
D = 13


def _bitrev8(value: int) -> int:
    result = 0
    for _ in range(8):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


#: zeta^bitrev8(k) mod q, the butterfly twiddles in standard NTT order.
ZETAS = tuple(pow(ZETA, _bitrev8(k), Q) for k in range(N))


def centered(value: int, modulus: int = Q) -> int:
    """Map ``value mod modulus`` into (-modulus/2, modulus/2]."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def power2round(value: int) -> tuple:
    """Split ``value`` (mod q) into (r1, r0) with r = r1*2^d + r0."""
    value %= Q
    r0 = centered(value, 1 << D)
    return (value - r0) >> D, r0


# ---------------------------------------------------------------------------
# Vectorized kernels (key generation, signing and verification).
#
# Exact int64 arithmetic mod q: the largest intermediate is an l-term sum
# of coefficient products (< 8 * q^2 < 2^49), so nothing overflows and the
# batched forms are bit-identical to the scalar FIPS 204 forms the
# test oracle keeps — the parity
# suite pins both.  The counted wrappers tick ``crypto.mldsa.ntt_calls``
# once per transformed row (one polynomial transform).


#: The full 8-layer NTT: 256 linear factors, n^-1 = 256^-1.
RING = NttRing(Q, ZETAS, 1)


def _ntt_batch(arr: np.ndarray) -> np.ndarray:
    """Counted :meth:`RING.ntt <NttRing.ntt>` — one ntt_calls tick per
    row."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls", arr.shape[0])
    return RING.ntt(arr)


def _intt_batch(arr: np.ndarray) -> np.ndarray:
    """Counted :meth:`RING.intt <NttRing.intt>` — one ntt_calls tick per
    row."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls", arr.shape[0])
    return RING.intt(arr)


def _high_bits_np(arr: np.ndarray, gamma2: int) -> np.ndarray:
    """Vectorized FIPS 204 HighBits (input reduced mod q), in one
    int64 workspace."""
    g = 2 * gamma2
    hi = arr % g
    np.subtract(hi, g, out=hi, where=hi > gamma2)
    np.subtract(arr, hi, out=hi)
    wrap = hi == Q - 1
    hi //= g
    hi[wrap] = 0
    return hi


def _inf_norm_rows_np(arr: np.ndarray) -> np.ndarray:
    """Per-lane infinity norm of a ``(lanes, ...)`` batch reduced mod q:
    ``min(x, q - x)`` is ``|centered(x)|`` on [0, q)."""
    lanes = arr.shape[0]
    dist = Q - arr
    np.minimum(arr, dist, out=dist)
    return dist.reshape(lanes, -1).max(axis=1)


def _low_bits_np(arr: np.ndarray, gamma2: int) -> np.ndarray:
    """Vectorized FIPS 204 LowBits (input reduced mod q)."""
    g = 2 * gamma2
    r0 = arr % g
    r0 = np.where(r0 > gamma2, r0 - g, r0)
    return np.where(arr - r0 == Q - 1, r0 - 1, r0)


# ---------------------------------------------------------------------------
# Bit packing


def bits_for(value: int) -> int:
    return value.bit_length()


def simple_bit_pack(coeffs: list, b: int) -> bytes:
    """Pack coefficients in [0, b] using bitlen(b) bits each."""
    width = bits_for(b)
    acc = 0
    acc_bits = 0
    out = bytearray()
    for c in coeffs:
        acc |= c << acc_bits
        acc_bits += width
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def simple_bit_unpack(data: bytes, b: int) -> list:
    width = bits_for(b)
    total = int.from_bytes(data, "little")
    mask = (1 << width) - 1
    return [(total >> (width * i)) & mask for i in range(N)]


def bit_pack(coeffs: list, a: int, b: int) -> bytes:
    """Pack centered coefficients in [-a, b] as b - c in bitlen(a+b) bits."""
    return simple_bit_pack([b - centered(c) for c in coeffs], a + b)


def bit_unpack(data: bytes, a: int, b: int) -> list:
    """Inverse of :func:`bit_pack`; coefficients returned mod q."""
    return [(b - z) % Q for z in simple_bit_unpack(data, a + b)]


def _bit_pack_np(arr: np.ndarray, a: int, b: int) -> np.ndarray:
    """:func:`bit_pack` rows of a ``(rows, n)`` batch reduced mod q."""
    cent = np.where(arr > Q // 2, arr - Q, arr)
    return pack_bits(b - cent, bits_for(a + b))


def _bit_unpack_np(data: bytes, rows: int, width: int, b: int) -> np.ndarray:
    """:func:`bit_unpack` of ``rows`` concatenated 32*width-byte blocks
    into a ``(rows, 256)`` int64 batch (coefficients mod q)."""
    values = unpack_bits(data, rows, width)
    np.subtract(b, values, out=values)
    values %= Q
    return values


# ---------------------------------------------------------------------------
# Parameter sets


@dataclass(frozen=True)
class MLDSAParams:
    """One FIPS 204 parameter set."""

    name: str
    k: int
    l: int
    eta: int
    tau: int
    gamma1: int
    gamma2: int
    omega: int
    ctilde_bytes: int

    @property
    def beta(self) -> int:
        return self.tau * self.eta

    @property
    def z_bits(self) -> int:
        return 1 + bits_for(self.gamma1 - 1)

    @property
    def w1_bits(self) -> int:
        return bits_for((Q - 1) // (2 * self.gamma2) - 1)

    @property
    def eta_bits(self) -> int:
        return bits_for(2 * self.eta)

    @property
    def public_key_bytes(self) -> int:
        return 32 + 32 * self.k * (23 - D)

    @property
    def secret_key_bytes(self) -> int:
        return (128 + 32 * (self.k + self.l) * self.eta_bits
                + 32 * self.k * D)

    @property
    def signature_bytes(self) -> int:
        return (self.ctilde_bytes + 32 * self.l * self.z_bits
                + self.omega + self.k)


ML_DSA_44 = MLDSAParams("ML-DSA-44", k=4, l=4, eta=2, tau=39,
                        gamma1=1 << 17, gamma2=(Q - 1) // 88, omega=80,
                        ctilde_bytes=32)
ML_DSA_65 = MLDSAParams("ML-DSA-65", k=6, l=5, eta=4, tau=49,
                        gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=55,
                        ctilde_bytes=48)
ML_DSA_87 = MLDSAParams("ML-DSA-87", k=8, l=7, eta=2, tau=60,
                        gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=75,
                        ctilde_bytes=64)

PARAMETER_SETS = {p.name: p for p in (ML_DSA_44, ML_DSA_65, ML_DSA_87)}


# ---------------------------------------------------------------------------
# Sampling


def _rej_ntt_poly(seed: bytes) -> list:
    """Sample a uniform NTT-domain polynomial by 23-bit rejection."""
    xof = Shake128(seed)
    coeffs = []
    while len(coeffs) < N:
        chunk = xof.read(3 * 168)
        for i in range(0, len(chunk), 3):
            value = (chunk[i] | (chunk[i + 1] << 8)
                     | ((chunk[i + 2] & 0x7F) << 16))
            if value < Q:
                coeffs.append(value)
                if len(coeffs) == N:
                    break
    return coeffs


def _coeff_from_half_byte(z: int, eta: int):
    if eta == 2 and z < 15:
        return (2 - (z % 5)) % Q
    if eta == 4 and z < 9:
        return (4 - z) % Q
    return None


def _rej_bounded_poly(seed: bytes, eta: int) -> list:
    """Sample a polynomial with coefficients in [-eta, eta]."""
    xof = Shake256(seed)
    coeffs = []
    while len(coeffs) < N:
        for byte in xof.read(136):
            for z in (byte & 0x0F, byte >> 4):
                c = _coeff_from_half_byte(z, eta)
                if c is not None:
                    coeffs.append(c)
                    if len(coeffs) == N:
                        return coeffs
    return coeffs


def expand_a(rho: bytes, params: MLDSAParams) -> list:
    """ExpandA: the k x l public matrix, sampled in the NTT domain."""
    return [[_rej_ntt_poly(rho + bytes([s, r])) for s in range(params.l)]
            for r in range(params.k)]


def expand_s(rho_prime: bytes, params: MLDSAParams) -> tuple:
    """ExpandS: the short secret vectors (s1, s2)."""
    s1 = [_rej_bounded_poly(rho_prime + r.to_bytes(2, "little"), params.eta)
          for r in range(params.l)]
    s2 = [_rej_bounded_poly(rho_prime + r.to_bytes(2, "little"), params.eta)
          for r in range(params.l, params.l + params.k)]
    return s1, s2


def _expand_mask_np(rho_pp: bytes, kappa: int,
                    params: MLDSAParams) -> np.ndarray:
    """ExpandMask as an ``(l, 256)`` int64 batch: the same
    SHAKE stream, unpacked in one vectorized pass."""
    width = params.z_bits
    data = b"".join(
        shake256(rho_pp + (kappa + r).to_bytes(2, "little"), 32 * width)
        for r in range(params.l))
    return _bit_unpack_np(data, params.l, width, params.gamma1)


def sample_in_ball(seed: bytes, params: MLDSAParams) -> list:
    """SampleInBall: a polynomial with tau coefficients of +-1."""
    xof = Shake256(seed)
    signs = int.from_bytes(xof.read(8), "little")
    # The rest of the stream, one byte per draw, squeezed a rate block
    # at a time.
    draws = chain.from_iterable(iter(lambda: xof.read(136), None))
    c = [0] * N
    for i in range(N - params.tau, N):
        j = next(draws)
        while j > i:
            j = next(draws)
        c[i] = c[j]
        c[j] = (1 if signs & 1 == 0 else Q - 1)
        signs >>= 1
    return c


# ---------------------------------------------------------------------------
# Hint packing


def hint_bit_pack(hints: list, params: MLDSAParams) -> bytes:
    """HintBitPack: sparse encoding of k hint polynomials (omega+k bytes)."""
    out = bytearray(params.omega + params.k)
    index = 0
    for i, poly in enumerate(hints):
        for j, bit in enumerate(poly):
            if bit:
                out[index] = j
                index += 1
        out[params.omega + i] = index
    return bytes(out)


def _hint_positions(data: bytes, params: MLDSAParams):
    """HintBitUnpack straight to the set bits: ``(polys, coefficients)``
    index lists, or None on malformed input (the strict checks of
    FIPS 204 Algorithm 21)."""
    polys = []
    coeffs = []
    index = 0
    for i in range(params.k):
        end = data[params.omega + i]
        if end < index or end > params.omega:
            return None
        run = list(data[index:end])
        if run != sorted(set(run)):             # not strictly increasing
            return None
        polys += [i] * len(run)
        coeffs += run
        index = end
    if any(data[index:params.omega]):
        return None
    return polys, coeffs


# ---------------------------------------------------------------------------
# Key/signature encodings


def pk_encode(rho: bytes, t1: list, params: MLDSAParams) -> bytes:
    packed = b"".join(simple_bit_pack(p, (1 << (23 - D)) - 1) for p in t1)
    return rho + packed


def pk_decode(data: bytes, params: MLDSAParams) -> tuple:
    if len(data) != params.public_key_bytes:
        raise ValueError(f"{params.name} public key must be "
                         f"{params.public_key_bytes} bytes")
    rho = data[:32]
    per_poly = 32 * (23 - D)
    t1 = []
    for i in range(params.k):
        chunk = data[32 + per_poly * i:32 + per_poly * (i + 1)]
        t1.append(simple_bit_unpack(chunk, (1 << (23 - D)) - 1))
    return rho, t1


def sk_encode(rho: bytes, key: bytes, tr: bytes, s1: list, s2: list,
              t0: list, params: MLDSAParams) -> bytes:
    parts = [rho, key, tr]
    parts += [bit_pack(p, params.eta, params.eta) for p in s1]
    parts += [bit_pack(p, params.eta, params.eta) for p in s2]
    parts += [bit_pack(p, (1 << (D - 1)) - 1, 1 << (D - 1)) for p in t0]
    return b"".join(parts)


def sk_decode(data: bytes, params: MLDSAParams) -> tuple:
    if len(data) != params.secret_key_bytes:
        raise ValueError(f"{params.name} secret key must be "
                         f"{params.secret_key_bytes} bytes")
    rho, key, tr = data[:32], data[32:64], data[64:128]
    offset = 128
    eta_len = 32 * params.eta_bits
    s1 = []
    for _ in range(params.l):
        s1.append(bit_unpack(data[offset:offset + eta_len],
                             params.eta, params.eta))
        offset += eta_len
    s2 = []
    for _ in range(params.k):
        s2.append(bit_unpack(data[offset:offset + eta_len],
                             params.eta, params.eta))
        offset += eta_len
    t0 = []
    t0_len = 32 * D
    for _ in range(params.k):
        t0.append(bit_unpack(data[offset:offset + t0_len],
                             (1 << (D - 1)) - 1, 1 << (D - 1)))
        offset += t0_len
    return rho, key, tr, s1, s2, t0


# ---------------------------------------------------------------------------
# Keyed contexts

#: Memoized keyed contexts and seed-regenerated keypairs, keyed by
#: ``(kind, parameter set, bytes)``.  A process-wide memo: hits replay
#: the build's PERF delta (the counter contract in ``repro.runtime.memo``).
_CTX_MEMO = Memo(maxsize=64)


class MLDSASigner:
    """Keyed signing context: the secret decoded and expanded once.

    Caches everything :meth:`MLDSA.sign` used to re-derive per call —
    ExpandA's Â, NTT(s1)/NTT(s2)/NTT(t0) and ``tr``, all as int64
    arrays for the batched kernels — so each signature pays only the
    per-attempt rejection loop.  Signatures are byte-identical to the
    one-shot path.  The NTTs of the build are precomputation and do not
    touch ``crypto.mldsa.ntt_calls``; the Keccak work of ExpandA is
    counted once and replayed on memo hits.  The cached arrays are
    treated as read-only, so a memoized context is safe to share across
    campaign worker threads.
    """

    __slots__ = ("params", "secret", "_key", "_tr", "_a_np",
                 "_s1_np", "_s2_np", "_t0_np")

    def __init__(self, params: MLDSAParams, secret: bytes):
        rho, key, tr, s1, s2, t0 = sk_decode(secret, params)
        self.params = params
        self.secret = bytes(secret)
        self._key = key
        self._tr = tr
        self._a_np = np.array(expand_a(rho, params), dtype=np.int64)
        self._s1_np = RING.ntt(np.array(s1, dtype=np.int64))
        self._s2_np = RING.ntt(np.array(s2, dtype=np.int64))
        self._t0_np = RING.ntt(np.array(t0, dtype=np.int64))

    def sign(self, message: bytes, context: bytes = b"") -> bytes:
        """Sign ``message`` (same contract as :meth:`MLDSA.sign`)."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign")
        with TELEMETRY.span("crypto.mldsa.sign",
                            message_bytes=len(message)):
            return self._sign(message, context, None)

    def _sign(self, message: bytes, context: bytes,
              _trace: dict) -> bytes:
        (signature,), (attempts,) = self._sign_many([message], context)
        if _trace is not None:
            _trace["attempts"] = attempts
            _trace["peak_stack_bytes"] = \
                MLDSA(self.params).signing_stack_bytes
        return signature

    def sign_many(self, messages, context: bytes = b"") -> list:
        """Sign a whole message batch through one vectorized rejection
        loop.

        :meth:`sign` is this kernel at batch size 1, so lane *i* of the
        result is byte-identical to ``self.sign(messages[i], context)``:
        every lane runs its own per-attempt schedule (kappa advances by
        ``l`` per attempt) and the same staged rejection checks, just
        stacked on a leading batch axis through the int64 NTT kernels.
        Each round resamples only the still-rejected lanes, and each
        rejection stage sub-batches to exactly the lanes that reach it
        — so ``crypto.mldsa.ntt_calls`` totals match the per-call loop
        exactly.
        """
        messages = list(messages)
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign", len(messages))
            PERF.inc("crypto.mldsa.batch_sign_lanes", len(messages))
        with TELEMETRY.span("crypto.mldsa.sign_many",
                            batch=len(messages)):
            return self._sign_many(messages, context)[0]

    def _sign_many(self, messages: list, context: bytes) -> tuple:
        """``(signatures, attempts)``: per lane, the signature and the
        number of rejection-loop attempts it took."""
        p = self.params
        batch = len(messages)
        if not batch:
            return [], []
        sigs = [None] * batch
        mus = []
        rho_pps = []
        for message in messages:
            mu = shake256(
                self._tr + MLDSA._format_message(message, context), 64)
            mus.append(mu)
            rho_pps.append(shake256(self._key + bytes(32) + mu, 64))
        kappas = [0] * batch
        active = list(range(batch))
        while active:
            lanes = len(active)
            y = np.empty((lanes, p.l, N), dtype=np.int64)
            for ai, lane in enumerate(active):
                y[ai] = _expand_mask_np(rho_pps[lane], kappas[lane], p)
                kappas[lane] += p.l
            y_hat = _ntt_batch(y.reshape(lanes * p.l, N)) \
                .reshape(lanes, p.l, N)
            # Â @ ŷ rows accumulate unreduced (< l * q^2 < 2^49); the
            # inverse transform reduces mod q.
            w = _intt_batch(
                np.einsum("rsn,bsn->brn", self._a_np, y_hat)
                .reshape(lanes * p.k, N)).reshape(lanes, p.k, N)
            w1_packed = pack_bits(
                _high_bits_np(w, p.gamma2).reshape(lanes, -1), p.w1_bits)
            c_tildes = [shake256(mus[lane] + w1_packed[ai].tobytes(),
                                 p.ctilde_bytes)
                        for ai, lane in enumerate(active)]
            c = np.array([sample_in_ball(ct, p) for ct in c_tildes],
                         dtype=np.int64)
            c_hat = _ntt_batch(c)
            z = (y + _intt_batch(
                (c_hat[:, None, :] * self._s1_np[None] % Q)
                .reshape(lanes * p.l, N)).reshape(lanes, p.l, N)) % Q
            pass1 = np.nonzero(
                _inf_norm_rows_np(z) < p.gamma1 - p.beta)[0]
            if pass1.size == 0:
                continue
            w_minus_cs2 = (w[pass1] - _intt_batch(
                (c_hat[pass1][:, None, :] * self._s2_np[None] % Q)
                .reshape(pass1.size * p.k, N))
                .reshape(pass1.size, p.k, N)) % Q
            r0 = np.abs(_low_bits_np(w_minus_cs2, p.gamma2)) \
                .reshape(pass1.size, -1).max(axis=1)
            keep2 = np.nonzero(r0 < p.gamma2 - p.beta)[0]
            if keep2.size == 0:
                continue
            pass2 = pass1[keep2]
            ct0 = _intt_batch(
                (c_hat[pass2][:, None, :] * self._t0_np[None] % Q)
                .reshape(pass2.size * p.k, N)).reshape(pass2.size, p.k, N)
            keep3 = np.nonzero(_inf_norm_rows_np(ct0) < p.gamma2)[0]
            if keep3.size == 0:
                continue
            pass3 = pass2[keep3]
            wm = w_minus_cs2[keep2][keep3]
            hint_bits = (_high_bits_np(wm, p.gamma2)
                         != _high_bits_np((wm + ct0[keep3]) % Q,
                                          p.gamma2))
            keep4 = np.nonzero(
                hint_bits.reshape(pass3.size, -1).sum(axis=1)
                <= p.omega)[0]
            done = pass3[keep4]
            if done.size:
                packed_z = _bit_pack_np(
                    z[done].reshape(done.size * p.l, N),
                    p.gamma1 - 1, p.gamma1).reshape(done.size, -1)
                hints_done = hint_bits[keep4].astype(np.int64)
                for bi, ai in enumerate(done.tolist()):
                    sigs[active[ai]] = (
                        c_tildes[ai] + packed_z[bi].tobytes()
                        + hint_bit_pack(hints_done[bi].tolist(), p))
            finished = set(done.tolist())
            active = [lane for ai, lane in enumerate(active)
                      if ai not in finished]
        return sigs, [kappa // p.l for kappa in kappas]


class MLDSAVerifier:
    """Keyed verification context: the public key decoded and expanded
    once (Â, ``tr``, NTT(t1 << d), as int64 arrays for the batched
    kernel); results identical to the one-shot path."""

    __slots__ = ("params", "public", "_tr", "_a_np", "_t1_np")

    def __init__(self, params: MLDSAParams, public: bytes):
        rho, t1 = pk_decode(public, params)
        self.params = params
        self.public = bytes(public)
        self._tr = shake256(public, 64)
        self._a_np = np.array(expand_a(rho, params), dtype=np.int64)
        self._t1_np = RING.ntt(np.array(t1, dtype=np.int64) << D)

    def verify(self, message: bytes, signature: bytes,
               context: bytes = b"") -> bool:
        """Check a signature (same contract as :meth:`MLDSA.verify`)."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify")
        with TELEMETRY.span("crypto.mldsa.verify",
                            message_bytes=len(message)):
            return _verify_lanes(self.params, [self], [message],
                                 [signature], context)[0]

    def verify_many(self, messages, signatures,
                    context: bytes = b"") -> list:
        """Check a signature batch under this key: the cross-key
        kernel of :meth:`MLDSA.verify_many` with one key, so entry *i*
        equals ``self.verify(messages[i], signatures[i], context)``."""
        messages = list(messages)
        signatures = list(signatures)
        if len(messages) != len(signatures):
            raise ValueError("messages and signatures must pair up")
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify", len(messages))
            PERF.inc("crypto.mldsa.batch_verify_lanes", len(messages))
        with TELEMETRY.span("crypto.mldsa.verify_many",
                            batch=len(messages)):
            return _verify_lanes(self.params, [self] * len(messages),
                                 messages, signatures, context)


def _verify_lanes(p: MLDSAParams, verifiers: list, messages: list,
                  signatures: list, context: bytes) -> list:
    """The one ML-DSA verify kernel: lane *i* checks ``signatures[i]``
    on ``messages[i]`` under ``verifiers[i]`` (an
    :class:`MLDSAVerifier`, or None for a key that does not decode,
    which fails the lane).

    Lanes rejected structurally (wrong length, z out of range,
    malformed hints) drop out before the transforms.  The survivors,
    ordered so that each key's lanes form one contiguous slice, share
    one pass of z unpack, SampleInBall, NTT(z), NTT(c), the INTT,
    UseHint, w1 packing and hashing; only the ``Â·ẑ − ĉ·t̂1`` matvec
    runs per distinct key, over that key's slice, so Â is never
    gathered per lane.  ``crypto.mldsa.ntt_calls`` ticks ``1 + l + k``
    rows per surviving lane, as a per-key loop does.
    """
    results = [False] * len(messages)
    z_start = p.ctilde_bytes
    z_end = z_start + 32 * p.z_bits * p.l
    by_key = {}
    for i, (verifier, signature) in enumerate(zip(verifiers, signatures)):
        if verifier is not None and len(signature) == p.signature_bytes:
            by_key.setdefault(verifier, []).append(i)
    cand = [i for lanes in by_key.values() for i in lanes]
    if not cand:
        return results
    # One unpack for every length-valid z vector, then per-lane
    # structural checks (norm bound, hint encoding).
    z = _bit_unpack_np(
        b"".join(signatures[i][z_start:z_end] for i in cand),
        len(cand) * p.l, p.z_bits, p.gamma1).reshape(len(cand), p.l, N)
    norms = _inf_norm_rows_np(z)
    keep = []
    lanes = []
    hint_lanes = []
    hint_polys = []
    hint_coeffs = []
    for ci, i in enumerate(cand):
        if norms[ci] >= p.gamma1 - p.beta:
            continue
        hints = _hint_positions(signatures[i][z_end:], p)
        if hints is None:
            continue
        hint_lanes += [len(lanes)] * len(hints[0])
        hint_polys += hints[0]
        hint_coeffs += hints[1]
        keep.append(ci)
        lanes.append(i)
    if not lanes:
        return results
    count = len(lanes)
    if count < len(cand):
        z = z[keep]
    c_hat = _ntt_batch(np.array(
        [sample_in_ball(signatures[i][:p.ctilde_bytes], p)
         for i in lanes], dtype=np.int64))
    z_hat = _ntt_batch(z.reshape(count * p.l, N)).reshape(count, p.l, N)
    del z
    # Â @ ẑ - ĉ * t̂1 per lane, unreduced (|.| < 9 * q^2 < 2^50), one
    # matvec per key over its contiguous slice of lanes.
    rows = np.empty((count, p.k, N), dtype=np.int64)
    start = 0
    for verifier, run in groupby(verifiers[i] for i in lanes):
        stop = start + sum(1 for _ in run)
        np.einsum("rsn,bsn->brn", verifier._a_np, z_hat[start:stop],
                  out=rows[start:stop])
        rows[start:stop] -= c_hat[start:stop, None, :] * verifier._t1_np
        start = stop
    del z_hat
    w_approx = _intt_batch(rows.reshape(count * p.k, N)) \
        .reshape(count, p.k, N)
    del rows
    w1 = _high_bits_np(w_approx, p.gamma2)
    # UseHint, vectorized across every set hint bit in the batch.
    if hint_lanes:
        at = (np.array(hint_lanes), np.array(hint_polys),
              np.array(hint_coeffs))
        vals = w_approx[at]
        m = (Q - 1) // (2 * p.gamma2)
        r1 = _high_bits_np(vals, p.gamma2)
        r0 = _low_bits_np(vals, p.gamma2)
        w1[at] = np.where(r0 > 0, (r1 + 1) % m, (r1 - 1) % m)
    del w_approx
    packed = pack_bits(w1.reshape(count, -1), p.w1_bits)
    for ai, i in enumerate(lanes):
        verifier = verifiers[i]
        mu = shake256(
            verifier._tr + MLDSA._format_message(messages[i], context), 64)
        expected = shake256(mu + packed[ai].tobytes(), p.ctilde_bytes)
        results[i] = expected == signatures[i][:p.ctilde_bytes]
    return results


# ---------------------------------------------------------------------------
# The scheme


class MLDSA:
    """An ML-DSA instance for one parameter set.

    >>> scheme = MLDSA(ML_DSA_44)
    >>> pk, sk = scheme.key_gen(bytes(32))
    >>> sig = scheme.sign(sk, b"attest me")
    >>> scheme.verify(pk, b"attest me", sig)
    True
    """

    def __init__(self, params: MLDSAParams = ML_DSA_44):
        self.params = params

    # -- key generation ----------------------------------------------------

    def key_gen(self, seed: bytes = None) -> tuple:
        """Generate (public_key, secret_key); deterministic in ``seed``.

        The 32-byte ``seed`` is exactly what the paper's PQ bootrom stores
        instead of the 2560-byte expanded key.
        """
        p = self.params
        if seed is None:
            return self._key_gen(os.urandom(32))
        if len(seed) != 32:
            raise ValueError("ML-DSA seed must be 32 bytes")
        # Seeded generation is deterministic, so regenerate-at-boot (the
        # paper's 32-byte-seed storage model) hits the context memo.
        seed = bytes(seed)
        return _CTX_MEMO.get_or_build(("key_gen", p.name, seed),
                                      lambda: self._key_gen(seed))

    def _key_gen(self, seed: bytes) -> tuple:
        p = self.params
        if PERF.enabled:
            PERF.inc("crypto.mldsa.key_gen")
        expanded = shake256(seed + bytes([p.k, p.l]), 128)
        rho, rho_prime, key = expanded[:32], expanded[32:96], expanded[96:]
        a_hat = np.array(expand_a(rho, p), dtype=np.int64)
        s1, s2 = expand_s(rho_prime, p)
        s1_hat = _ntt_batch(np.array(s1, dtype=np.int64))
        # Â @ ŝ1 rows accumulate unreduced (< l * q^2 < 2^49); the
        # inverse transform reduces mod q.
        t = (_intt_batch(np.einsum("rsn,sn->rn", a_hat, s1_hat))
             + np.array(s2, dtype=np.int64)) % Q
        t1 = []
        t0 = []
        for poly in t.tolist():
            highs, lows = zip(*(power2round(c) for c in poly))
            t1.append(list(highs))
            t0.append([low % Q for low in lows])
        public = pk_encode(rho, t1, p)
        tr = shake256(public, 64)
        secret = sk_encode(rho, key, tr, s1, s2, t0, p)
        return public, secret

    # -- keyed contexts ----------------------------------------------------

    def signer(self, secret: bytes) -> MLDSASigner:
        """A memoized :class:`MLDSASigner` for ``secret``."""
        return _CTX_MEMO.get_or_build(
            ("signer", self.params.name, bytes(secret)),
            lambda: MLDSASigner(self.params, secret))

    def verifier(self, public: bytes) -> MLDSAVerifier:
        """A memoized :class:`MLDSAVerifier` for ``public``."""
        return _CTX_MEMO.get_or_build(
            ("verifier", self.params.name, bytes(public)),
            lambda: MLDSAVerifier(self.params, public))

    # -- signing -----------------------------------------------------------

    @staticmethod
    def _format_message(message: bytes, context: bytes) -> bytes:
        if len(context) > 255:
            raise ValueError("context string must be at most 255 bytes")
        return bytes([0, len(context)]) + context + message

    def sign(self, secret: bytes, message: bytes, context: bytes = b"",
             _trace: dict = None) -> bytes:
        """Sign ``message`` deterministically (FIPS 204's deterministic
        variant: ``rnd`` is 32 zero bytes).

        ``_trace``, when given a dict, receives diagnostics used by the
        TEE stack-sizing experiment: ``attempts`` and ``peak_stack_bytes``.
        """
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign")
        with TELEMETRY.span("crypto.mldsa.sign",
                            message_bytes=len(message)):
            return self._sign(secret, message, context, _trace)

    def _sign(self, secret: bytes, message: bytes, context: bytes,
              _trace: dict) -> bytes:
        return self.signer(secret)._sign(message, context, _trace)

    # -- verification ------------------------------------------------------

    def verify(self, public: bytes, message: bytes, signature: bytes,
               context: bytes = b"") -> bool:
        """Check a signature; False on any malformation or mismatch."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify")
        with TELEMETRY.span("crypto.mldsa.verify",
                            message_bytes=len(message)):
            return self._verify(public, message, signature, context)

    def _verify(self, public: bytes, message: bytes, signature: bytes,
                context: bytes) -> bool:
        return self._verify_many([public], [message], [signature],
                                 context)[0]

    def verify_many(self, publics, messages, signatures,
                    context: bytes = b"") -> list:
        """Check a batch of signatures under one public key per lane:
        entry *i* equals ``self.verify(publics[i], messages[i],
        signatures[i], context)``.

        Each distinct key resolves once to its memoized
        :class:`MLDSAVerifier`; then every lane, whatever its key, goes
        through one pass of the verify kernel (see
        :func:`_verify_lanes`).
        """
        publics = list(publics)
        messages = list(messages)
        signatures = list(signatures)
        if not len(publics) == len(messages) == len(signatures):
            raise ValueError("publics, messages and signatures must "
                             "pair up")
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify", len(messages))
            PERF.inc("crypto.mldsa.batch_verify_lanes", len(messages))
        with TELEMETRY.span("crypto.mldsa.verify_many",
                            batch=len(messages)):
            return self._verify_many(publics, messages, signatures,
                                     context)

    def _verify_many(self, publics: list, messages: list,
                     signatures: list, context: bytes) -> list:
        verifiers = {}
        for public in publics:
            public = bytes(public)
            if public not in verifiers:
                try:
                    verifiers[public] = self.verifier(public)
                except ValueError:
                    verifiers[public] = None
        return _verify_lanes(self.params,
                             [verifiers[bytes(pk)] for pk in publics],
                             messages, signatures, context)

    # -- resource model ----------------------------------------------------

    @property
    def signing_stack_bytes(self) -> int:
        """Approximate C-implementation stack demand of signing.

        Modelled on the PQClean reference implementation the paper uses:
        the signing routine keeps the expanded matrix (k*l polys), five
        vectors of length k or l and several temporaries as 32-bit
        coefficient arrays on the stack.  For ML-DSA-44 this lands near
        50 KB — far beyond Keystone's default 8 KB SM stack, which is why
        the paper raises the per-core stack to 128 KB.
        """
        p = self.params
        poly_bytes = 4 * N
        polys = (p.k * p.l          # expanded A
                 + 2 * p.l          # y, z
                 + 3 * p.k          # w, w1, hint workspace
                 + p.l + 2 * p.k    # s1, s2, t0
                 + 4)               # c and temporaries
        return polys * poly_bytes + 2048

