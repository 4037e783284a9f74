"""Frozen reference implementations the fast crypto paths are pinned to.

Each function here is the readable, loop-form version of a kernel whose
production form lives elsewhere in :mod:`repro.crypto`: the parity
suites prove the two equal, and the crypto benches time the production
form against these in the same process.  Production code never imports
this module (``tests/test_imports.py`` enforces that); tests import it
as ``crypto_reference``, and ``benchmarks/conftest.py`` puts ``tests/``
on the path for the benches.

* Keccak-f[1600] in loop form and a from-scratch sponge with SHA-3 /
  SHAKE on top (production: :mod:`hashlib`);
* the schoolbook AES round (production: batched T-table gathers) and
  its inverse, the decryption oracle encryption is checked against (CTR
  mode never decrypts a block);
* the FIPS 203 NTT pair and base multiplication (production:
  :mod:`repro.crypto.lattice` and ML-KEM's batched K-PKE);
* the FIPS 204 NTT pair, SampleInBall and the pre-fast-path ML-DSA
  sign/verify flows (production: the batched int64 numpy kernels);
* Ed25519 verification with double-and-add scalar multiplication
  (production: windowed and multi-scalar paths).
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto import ed25519 as _ed
from repro.crypto import mldsa as _m
from repro.crypto import mlkem as _k
from repro.crypto.aes import SBOX, gf_mul

# -- Keccak ----------------------------------------------------------------

_MASK64 = (1 << 64) - 1

#: Round constants for the iota step of Keccak-f[1600].
ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _rho_offsets() -> tuple:
    """Compute the FIPS 202 rho rotation offsets, indexed ``[x][y]``.

    Derived from the defining recurrence: starting at lane (1, 0), step t
    rotates by (t+1)(t+2)/2 and moves to (y, 2x + 3y mod 5).
    """
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return tuple(tuple(row) for row in offsets)


#: FIPS 202 rho-step rotation offsets, indexed ``[x][y]``.
ROTATION_OFFSETS = _rho_offsets()


def _rotl64(value: int, shift: int) -> int:
    """Rotate a 64-bit lane left by ``shift`` bits."""
    shift %= 64
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def keccak_f1600(lanes: list) -> list:
    """Keccak-f[1600] in loop form: a flat list of 25 lanes in (lane
    ``(x, y)`` at index ``x + 5 * y``), a new list out."""
    a = list(lanes)
    for rc in ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl64(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] ^= d[x]
        # rho and pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                nx, ny = y, (2 * x + 3 * y) % 5
                b[nx + 5 * ny] = _rotl64(a[x + 5 * y],
                                         ROTATION_OFFSETS[x][y])
        # chi
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] = b[x + 5 * y] ^ (
                    (~b[(x + 1) % 5 + 5 * y] & _MASK64)
                    & b[(x + 2) % 5 + 5 * y])
        # iota
        a[0] ^= rc
    return a


class KeccakSponge:
    """Incremental Keccak sponge with a lane-aligned rate.

    Parameters
    ----------
    rate_bytes:
        Sponge rate in bytes (block size), a multiple of 8 below 200;
        capacity is ``200 - rate``.
    domain_suffix:
        Padding domain-separation byte (``0x06`` for SHA-3, ``0x1F`` for
        SHAKE, ``0x01`` for original Keccak).
    """

    def __init__(self, rate_bytes: int, domain_suffix: int):
        if not 0 < rate_bytes < 200:
            raise ValueError(f"rate must be in (0, 200), got {rate_bytes}")
        if rate_bytes % 8:
            # Blocks are XORed in as whole 64-bit lanes; a partial lane
            # would silently drop the block's trailing bytes.
            raise ValueError(
                f"rate must be a multiple of 8 bytes, got {rate_bytes}")
        self.rate_bytes = rate_bytes
        self.domain_suffix = domain_suffix
        self._lanes = [0] * 25
        self._buffer = bytearray()
        self._squeezing = False
        self._squeeze_offset = 0

    def absorb(self, data: bytes) -> "KeccakSponge":
        """Absorb ``data`` into the sponge; chainable."""
        if self._squeezing:
            raise RuntimeError("cannot absorb after squeezing has begun")
        buffer = self._buffer
        buffer.extend(data)
        rate = self.rate_bytes
        if len(buffer) >= rate:
            blocks = len(buffer) // rate
            chunk = bytes(buffer[:blocks * rate])
            del buffer[:blocks * rate]
            self._absorb_blocks(chunk)
        return self

    def _absorb_blocks(self, chunk: bytes) -> None:
        """XOR-and-permute whole rate-sized blocks (``chunk`` is a
        multiple of the rate)."""
        rate = self.rate_bytes
        lanes_per_block = rate // 8
        fmt = f"<{lanes_per_block}Q"
        lanes = self._lanes
        for offset in range(0, len(chunk), rate):
            words = struct.unpack_from(fmt, chunk, offset)
            for i in range(lanes_per_block):
                lanes[i] ^= words[i]
            lanes = keccak_f1600(lanes)
        self._lanes = lanes

    def _pad(self) -> None:
        pad_len = self.rate_bytes - (len(self._buffer) % self.rate_bytes)
        padding = bytearray(pad_len)
        padding[0] = self.domain_suffix
        padding[-1] ^= 0x80
        self._buffer.extend(padding)
        chunk = bytes(self._buffer)
        del self._buffer[:]
        self._absorb_blocks(chunk)

    def _serialize_rate(self) -> bytes:
        """The rate-sized prefix of the state as bytes (one output
        block of the squeezing phase)."""
        full = self.rate_bytes // 8
        return struct.pack(f"<{full}Q", *self._lanes[:full])

    def squeeze(self, length: int) -> bytes:
        """Squeeze ``length`` output bytes; may be called repeatedly."""
        if not self._squeezing:
            self._pad()
            self._squeezing = True
            self._squeeze_offset = 0
            self._block = self._serialize_rate()
        out = bytearray()
        rate = self.rate_bytes
        while len(out) < length:
            if self._squeeze_offset == rate:
                self._lanes = keccak_f1600(self._lanes)
                self._block = self._serialize_rate()
                self._squeeze_offset = 0
            take = min(length - len(out), rate - self._squeeze_offset)
            out.extend(self._block[self._squeeze_offset:
                                   self._squeeze_offset + take])
            self._squeeze_offset += take
        return bytes(out)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 via the from-scratch sponge (32 bytes)."""
    return KeccakSponge(136, domain_suffix=0x06).absorb(data).squeeze(32)


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 via the from-scratch sponge (64 bytes)."""
    return KeccakSponge(72, domain_suffix=0x06).absorb(data).squeeze(64)


def shake128(data: bytes, out_len: int) -> bytes:
    """SHAKE128 via the from-scratch sponge."""
    return KeccakSponge(168, domain_suffix=0x1F).absorb(data).squeeze(out_len)


def shake256(data: bytes, out_len: int) -> bytes:
    """SHAKE256 via the from-scratch sponge."""
    return KeccakSponge(136, domain_suffix=0x1F).absorb(data).squeeze(out_len)


# -- AES -------------------------------------------------------------------


def _add_round_key(state: list, round_key: list) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _shift_rows(state: list) -> list:
    # State is column-major: state[4*col + row].
    out = [0] * 16
    for col in range(4):
        for row in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _inv_shift_rows(state: list) -> list:
    out = [0] * 16
    for col in range(4):
        for row in range(4):
            out[4 * ((col + row) % 4) + row] = state[4 * col + row]
    return out


def _mix_columns(state: list) -> list:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col:4 * col + 4]
        out[4 * col + 0] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3)
        out[4 * col + 3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2)
    return out


def _inv_mix_columns(state: list) -> list:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col:4 * col + 4]
        out[4 * col + 0] = (gf_mul(a[0], 14) ^ gf_mul(a[1], 11)
                            ^ gf_mul(a[2], 13) ^ gf_mul(a[3], 9))
        out[4 * col + 1] = (gf_mul(a[0], 9) ^ gf_mul(a[1], 14)
                            ^ gf_mul(a[2], 11) ^ gf_mul(a[3], 13))
        out[4 * col + 2] = (gf_mul(a[0], 13) ^ gf_mul(a[1], 9)
                            ^ gf_mul(a[2], 14) ^ gf_mul(a[3], 11))
        out[4 * col + 3] = (gf_mul(a[0], 11) ^ gf_mul(a[1], 13)
                            ^ gf_mul(a[2], 9) ^ gf_mul(a[3], 14))
    return out


#: The inverse S-box, derived from :data:`repro.crypto.aes.SBOX`.
INV_SBOX = tuple(SBOX.index(i) for i in range(256))


def aes_encrypt_block(cipher, block: bytes) -> bytes:
    """Schoolbook SubBytes/ShiftRows/MixColumns encryption of one block
    under ``cipher``'s round keys — what
    :meth:`repro.crypto.aes.AES.encrypt_block` is pinned against."""
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    round_keys = cipher._round_keys
    state = list(block)
    _add_round_key(state, round_keys[0])
    for r in range(1, cipher.rounds):
        state = [SBOX[b] for b in state]
        state = _shift_rows(state)
        state = _mix_columns(state)
        _add_round_key(state, round_keys[r])
    state = [SBOX[b] for b in state]
    state = _shift_rows(state)
    _add_round_key(state, round_keys[cipher.rounds])
    return bytes(state)


def aes_decrypt_block(cipher, block: bytes) -> bytes:
    """The inverse cipher (FIPS 197 Sec. 5.3) under ``cipher``'s round
    keys: the oracle that every encrypted block decrypts back."""
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    round_keys = cipher._round_keys
    state = list(block)
    _add_round_key(state, round_keys[cipher.rounds])
    for r in range(cipher.rounds - 1, 0, -1):
        state = _inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        _add_round_key(state, round_keys[r])
        state = _inv_mix_columns(state)
    state = _inv_shift_rows(state)
    state = [INV_SBOX[b] for b in state]
    _add_round_key(state, round_keys[0])
    return bytes(state)


# -- ML-KEM ----------------------------------------------------------------


def mlkem_ntt(coeffs: list) -> list:
    """Forward FIPS 203 NTT (Algorithm 9): seven layers, 128 factors."""
    q, zetas = _k.Q, _k.ZETAS
    a = list(coeffs)
    k = 1
    length = 128
    while length >= 2:
        start = 0
        while start < _k.N:
            zeta = zetas[k]
            k += 1
            for j in range(start, start + length):
                t = zeta * a[j + length] % q
                a[j + length] = (a[j] - t) % q
                a[j] = (a[j] + t) % q
            start += 2 * length
        length //= 2
    return a


def mlkem_intt(coeffs: list) -> list:
    """Inverse FIPS 203 NTT (Algorithm 10), times 128^-1."""
    q, zetas = _k.Q, _k.ZETAS
    a = list(coeffs)
    k = 127
    length = 2
    while length <= 128:
        start = 0
        while start < _k.N:
            zeta = zetas[k]
            k -= 1
            for j in range(start, start + length):
                t = a[j]
                a[j] = (t + a[j + length]) % q
                a[j + length] = zeta * (a[j + length] - t) % q
            start += 2 * length
        length *= 2
    n_inv = pow(128, q - 2, q)
    return [x * n_inv % q for x in a]


def mlkem_ntt_mul(a: list, b: list) -> list:
    """MultiplyNTTs (FIPS 203 Algorithm 11): BaseCaseMultiply of each
    of the 128 degree-1 factor pairs."""
    q = _k.Q
    c = [0] * _k.N
    for i in range(128):
        a0, a1 = a[2 * i], a[2 * i + 1]
        b0, b1 = b[2 * i], b[2 * i + 1]
        c[2 * i] = (a0 * b0 + a1 * b1 % q * _k.GAMMAS[i]) % q
        c[2 * i + 1] = (a0 * b1 + a1 * b0) % q
    return c


# -- ML-DSA ----------------------------------------------------------------


def mldsa_ntt(coeffs: list) -> list:
    """Forward FIPS 204 NTT, fully reduced at every butterfly."""
    q, zetas = _m.Q, _m.ZETAS
    a = list(coeffs)
    k = 0
    length = 128
    while length >= 1:
        start = 0
        while start < _m.N:
            k += 1
            zeta = zetas[k]
            for j in range(start, start + length):
                t = zeta * a[j + length] % q
                a[j + length] = (a[j] - t) % q
                a[j] = (a[j] + t) % q
            start += 2 * length
        length //= 2
    return a


def mldsa_intt(coeffs: list) -> list:
    """Inverse FIPS 204 NTT, fully reduced at every butterfly."""
    q, zetas = _m.Q, _m.ZETAS
    a = list(coeffs)
    k = _m.N
    length = 1
    while length < _m.N:
        start = 0
        while start < _m.N:
            k -= 1
            neg_zeta = q - zetas[k]
            for j in range(start, start + length):
                t = a[j]
                a[j] = (t + a[j + length]) % q
                a[j + length] = (t - a[j + length]) * neg_zeta % q
            start += 2 * length
        length *= 2
    n_inv = pow(_m.N, q - 2, q)
    return [x * n_inv % q for x in a]


def mldsa_sample_in_ball(seed: bytes, params) -> list:
    """SampleInBall re-squeezing SHAKE256 for every one-byte draw
    (production: blockwise reads of a buffered XOF)."""
    xof = hashlib.shake_256(seed)
    signs = int.from_bytes(xof.digest(8), "little")
    drawn = 8
    c = [0] * _m.N
    for i in range(_m.N - params.tau, _m.N):
        while True:
            j = xof.digest(drawn + 1)[drawn]
            drawn += 1
            if j <= i:
                break
        c[i] = c[j]
        c[j] = 1 if signs & 1 == 0 else _m.Q - 1
        signs >>= 1
    return c


# -- ML-DSA scalar helpers ------------------------------------------------
# FIPS 204 per-coefficient forms the oracle signs and verifies with; the
# production kernels in repro.crypto.mldsa are their vectorized forms.

def ntt_mul(a: list, b: list) -> list:
    """Coefficient-wise product of two NTT-domain polynomials."""
    return [x * y % _m.Q for x, y in zip(a, b)]


def poly_add(a: list, b: list) -> list:
    return [(x + y) % _m.Q for x, y in zip(a, b)]


def poly_sub(a: list, b: list) -> list:
    return [(x - y) % _m.Q for x, y in zip(a, b)]


def infinity_norm(poly_or_vec) -> int:
    """Max |coefficient| after centering mod q (vector of polys or poly)."""
    if poly_or_vec and isinstance(poly_or_vec[0], list):
        return max(infinity_norm(p) for p in poly_or_vec)
    return max(abs(_m.centered(c)) for c in poly_or_vec)


def decompose(value: int, gamma2: int) -> tuple:
    """FIPS 204 Decompose: r = r1*(2*gamma2) + r0 with the q-1 wraparound."""
    value %= _m.Q
    r0 = _m.centered(value, 2 * gamma2)
    if value - r0 == _m.Q - 1:
        return 0, r0 - 1
    return (value - r0) // (2 * gamma2), r0


def high_bits(value: int, gamma2: int) -> int:
    return decompose(value, gamma2)[0]


def low_bits(value: int, gamma2: int) -> int:
    return decompose(value, gamma2)[1]


def make_hint(z: int, r: int, gamma2: int) -> int:
    """1 iff adding ``z`` to ``r`` changes the high bits."""
    return int(high_bits(r, gamma2) != high_bits((r + z) % _m.Q, gamma2))


def use_hint(hint: int, r: int, gamma2: int) -> int:
    """Recover the high bits of ``r + z`` from ``r`` and the hint bit."""
    m = (_m.Q - 1) // (2 * gamma2)
    r1, r0 = decompose(r, gamma2)
    if hint == 0:
        return r1
    if r0 > 0:
        return (r1 + 1) % m
    return (r1 - 1) % m


def expand_mask(rho_pp: bytes, kappa: int, params: _m.MLDSAParams) -> list:
    """ExpandMask: the per-attempt commitment mask vector y."""
    width = params.z_bits
    vec = []
    for r in range(params.l):
        seed = rho_pp + (kappa + r).to_bytes(2, "little")
        data = _m.shake256(seed, 32 * width)
        vec.append(_m.bit_unpack(data, params.gamma1 - 1, params.gamma1))
    return vec


def hint_bit_unpack(data: bytes, params: _m.MLDSAParams):
    """Strict inverse of :func:`_m.hint_bit_pack`; None on malformed input."""
    positions = _m._hint_positions(data, params)
    if positions is None:
        return None
    hints = [[0] * _m.N for _ in range(params.k)]
    for i, j in zip(*positions):
        hints[i][j] = 1
    return hints


def w1_encode(w1: list, params: _m.MLDSAParams) -> bytes:
    bound = (_m.Q - 1) // (2 * params.gamma2) - 1
    return b"".join(_m.simple_bit_pack(p, bound) for p in w1)


def sig_encode(c_tilde: bytes, z: list, hints: list,
               params: _m.MLDSAParams) -> bytes:
    packed_z = b"".join(_m.bit_pack(p, params.gamma1 - 1, params.gamma1)
                        for p in z)
    return c_tilde + packed_z + _m.hint_bit_pack(hints, params)


def sig_decode(data: bytes, params: _m.MLDSAParams):
    if len(data) != params.signature_bytes:
        return None
    c_tilde = data[:params.ctilde_bytes]
    z_len = 32 * params.z_bits
    offset = params.ctilde_bytes
    z = []
    for _ in range(params.l):
        z.append(_m.bit_unpack(data[offset:offset + z_len],
                            params.gamma1 - 1, params.gamma1))
        offset += z_len
    hints = hint_bit_unpack(data[offset:], params)
    if hints is None:
        return None
    return c_tilde, z, hints


def mldsa_sign(scheme, secret: bytes, message: bytes,
               context: bytes = b"") -> bytes:
    """The pre-fast-path deterministic ML-DSA signing flow.

    Decodes the secret and transforms it for every call, runs the
    rejection loop coefficient by coefficient and uses the loop-form
    NTTs.  :meth:`repro.crypto.mldsa.MLDSA.sign` is pinned
    byte-identical to this.
    """
    p, m = scheme.params, _m
    rho, key, tr, s1, s2, t0 = m.sk_decode(secret, p)
    a_hat = m.expand_a(rho, p)
    s1_hat = [mldsa_ntt(poly) for poly in s1]
    s2_hat = [mldsa_ntt(poly) for poly in s2]
    t0_hat = [mldsa_ntt(poly) for poly in t0]
    mu = m.shake256(tr + scheme._format_message(message, context), 64)
    rho_pp = m.shake256(key + bytes(32) + mu, 64)
    kappa = 0
    while True:
        y = expand_mask(rho_pp, kappa, p)
        kappa += p.l
        y_hat = [mldsa_ntt(poly) for poly in y]
        w = []
        for r in range(p.k):
            acc = [0] * m.N
            for s in range(p.l):
                acc = poly_add(acc, ntt_mul(a_hat[r][s], y_hat[s]))
            w.append(mldsa_intt(acc))
        w1 = [[high_bits(c, p.gamma2) for c in poly] for poly in w]
        c_tilde = m.shake256(mu + w1_encode(w1, p), p.ctilde_bytes)
        c = mldsa_sample_in_ball(c_tilde, p)
        c_hat = mldsa_ntt(c)
        z = [poly_add(y[s], mldsa_intt(ntt_mul(c_hat, s1_hat[s])))
             for s in range(p.l)]
        if infinity_norm(z) >= p.gamma1 - p.beta:
            continue
        w_minus_cs2 = [
            poly_sub(w[r], mldsa_intt(ntt_mul(c_hat, s2_hat[r])))
            for r in range(p.k)]
        r0_norm = max(abs(low_bits(c, p.gamma2))
                      for poly in w_minus_cs2 for c in poly)
        if r0_norm >= p.gamma2 - p.beta:
            continue
        ct0 = [mldsa_intt(ntt_mul(c_hat, t0_hat[r])) for r in range(p.k)]
        if infinity_norm(ct0) >= p.gamma2:
            continue
        hints = []
        ones = 0
        for r in range(p.k):
            poly_hint = []
            for j in range(m.N):
                bit = make_hint((-ct0[r][j]) % m.Q,
                                  (w_minus_cs2[r][j] + ct0[r][j]) % m.Q,
                                  p.gamma2)
                poly_hint.append(bit)
                ones += bit
            hints.append(poly_hint)
        if ones > p.omega:
            continue
        return sig_encode(c_tilde, z, hints, p)


def mldsa_verify(scheme, public: bytes, message: bytes, signature: bytes,
                 context: bytes = b"") -> bool:
    """The pre-fast-path ML-DSA verification flow (see
    :func:`mldsa_sign`)."""
    p, m = scheme.params, _m
    try:
        rho, t1 = m.pk_decode(public, p)
    except ValueError:
        return False
    decoded = sig_decode(signature, p)
    if decoded is None:
        return False
    c_tilde, z, hints = decoded
    if infinity_norm(z) >= p.gamma1 - p.beta:
        return False
    a_hat = m.expand_a(rho, p)
    tr = m.shake256(public, 64)
    mu = m.shake256(tr + scheme._format_message(message, context), 64)
    c = mldsa_sample_in_ball(c_tilde, p)
    c_hat = mldsa_ntt(c)
    z_hat = [mldsa_ntt(poly) for poly in z]
    t1_hat = [mldsa_ntt([coef << m.D for coef in poly]) for poly in t1]
    w1_prime = []
    for r in range(p.k):
        acc = [0] * m.N
        for s in range(p.l):
            acc = poly_add(acc, ntt_mul(a_hat[r][s], z_hat[s]))
        acc = poly_sub(acc, ntt_mul(c_hat, t1_hat[r]))
        w_approx = mldsa_intt(acc)
        w1_prime.append([use_hint(hints[r][j], w_approx[j], p.gamma2)
                         for j in range(m.N)])
    expected = m.shake256(mu + w1_encode(w1_prime, p), p.ctilde_bytes)
    return expected == c_tilde


# -- Ed25519 ---------------------------------------------------------------


def ed25519_point_mul(scalar: int, point):
    """Bitwise double-and-add scalar multiplication."""
    result = _ed._IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _ed._point_add(result, addend)
        addend = _ed._point_add(addend, addend)
        scalar >>= 1
    return result


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """The pre-fast-path verification flow: decompress both points and
    check the cofactored ``[8](s*B - R - k*A) == identity`` with two
    double-and-add chains.  :func:`repro.crypto.ed25519.verify` is
    pinned equivalent to this."""
    ed = _ed
    if len(public) != ed.PUBLIC_KEY_LEN or \
            len(signature) != ed.SIGNATURE_LEN:
        return False
    try:
        a = ed._decompress(public)
        r = ed._decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= ed.L or ed._is_small_order(a):
        return False
    k = int.from_bytes(ed._sha512(signature[:32] + public + message),
                       "little") % ed.L
    sb = ed25519_point_mul(s, ed.BASE_POINT)
    ka = ed25519_point_mul(k, a)
    return ed._is_small_order(
        ed._point_add(sb, ed._point_negate(ed._point_add(r, ka))))
