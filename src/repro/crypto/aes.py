"""Pure-Python AES-128/192/256 (FIPS 197) with CTR mode and an AEAD.

AES-256 is CONVOLVE's payload-encryption algorithm (Section III-A,
Table II): HADES explores masked hardware designs of exactly this cipher.
This module is the functional software reference; the *hardware design
space* of AES lives in :mod:`repro.hades.library.aes`.

The S-box is derived programmatically from the GF(2^8) inversion +
affine transform definition rather than transcribed, so a typo
cannot silently corrupt the cipher; FIPS 197 known-answer vectors are
enforced in the test suite.

Encryption runs on 32-bit T-tables (SubBytes fused with MixColumns,
derived from the generated S-box) with the whole CTR keystream XORed as
one bignum; :func:`repro.crypto.reference.aes_encrypt_block` keeps
the schoolbook round the fast path is pinned against.
"""

from __future__ import annotations

from .keccak import sha3_256


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (AES polynomial)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    # a^(2^8 - 2) = a^254 is the inverse in GF(2^8).
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        exponent >>= 1
    return result


def _build_sbox() -> tuple:
    sbox = [0] * 256
    for value in range(256):
        inv = _gf_inverse(value)
        out = 0
        for bit in range(8):
            parity = (
                (inv >> bit) ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8)) ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8)) ^ (0x63 >> bit)
            ) & 1
            out |= parity << bit
        sbox[value] = out
    return tuple(sbox)


SBOX = _build_sbox()


def _build_t_tables() -> tuple:
    """The four 32-bit T-tables fusing SubBytes with MixColumns.

    ``T{r}[x]`` is the contribution of input byte ``x`` arriving in row
    ``r`` of a column, packed little-endian (row 0 in the low byte), so
    an encrypt round is four table lookups + XORs per column.
    """
    t0 = []
    t1 = []
    t2 = []
    t3 = []
    for x in range(256):
        s = SBOX[x]
        s2 = _xtime(s)
        s3 = s2 ^ s
        t0.append(s2 | (s << 8) | (s << 16) | (s3 << 24))
        t1.append(s3 | (s2 << 8) | (s << 16) | (s << 24))
        t2.append(s | (s3 << 8) | (s2 << 16) | (s << 24))
        t3.append(s | (s << 8) | (s3 << 16) | (s2 << 24))
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_t_tables()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


class AES:
    """AES block cipher (encryption direction: CTR mode needs no
    other) for 16/24/32-byte keys."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        # Round keys as packed 32-bit column words for the T-table path.
        self._round_key_words = [
            tuple(int.from_bytes(bytes(rk[4 * c:4 * c + 4]), "little")
                  for c in range(4))
            for rk in self._round_keys]

    def _expand_key(self, key: bytes) -> list:
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(self.rounds + 1):
            round_keys.append([byte for word in words[4 * r:4 * r + 4]
                               for byte in word])
        return round_keys

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        words = self._round_key_words
        w0 = words[0]
        c0 = int.from_bytes(block[0:4], "little") ^ w0[0]
        c1 = int.from_bytes(block[4:8], "little") ^ w0[1]
        c2 = int.from_bytes(block[8:12], "little") ^ w0[2]
        c3 = int.from_bytes(block[12:16], "little") ^ w0[3]
        for r in range(1, self.rounds):
            wr = words[r]
            n0 = (t0[c0 & 255] ^ t1[(c1 >> 8) & 255]
                  ^ t2[(c2 >> 16) & 255] ^ t3[c3 >> 24] ^ wr[0])
            n1 = (t0[c1 & 255] ^ t1[(c2 >> 8) & 255]
                  ^ t2[(c3 >> 16) & 255] ^ t3[c0 >> 24] ^ wr[1])
            n2 = (t0[c2 & 255] ^ t1[(c3 >> 8) & 255]
                  ^ t2[(c0 >> 16) & 255] ^ t3[c1 >> 24] ^ wr[2])
            n3 = (t0[c3 & 255] ^ t1[(c0 >> 8) & 255]
                  ^ t2[(c1 >> 16) & 255] ^ t3[c2 >> 24] ^ wr[3])
            c0, c1, c2, c3 = n0, n1, n2, n3
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        rk = self._round_keys[self.rounds]
        sbox = SBOX
        cols = (c0, c1, c2, c3)
        out = bytearray(16)
        for col in range(4):
            base = 4 * col
            out[base] = sbox[cols[col] & 255] ^ rk[base]
            out[base + 1] = \
                sbox[(cols[(col + 1) & 3] >> 8) & 255] ^ rk[base + 1]
            out[base + 2] = \
                sbox[(cols[(col + 2) & 3] >> 16) & 255] ^ rk[base + 2]
            out[base + 3] = \
                sbox[cols[(col + 3) & 3] >> 24] ^ rk[base + 3]
        return bytes(out)


def aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR keystream XOR (encryption and decryption are identical).

    ``nonce`` must be 12 bytes; the remaining 4 bytes hold a big-endian
    block counter starting at 0.
    """
    if len(nonce) != 12:
        raise ValueError("CTR nonce must be 12 bytes")
    cipher = AES(key)
    encrypt = cipher.encrypt_block
    size = len(data)
    keystream = b"".join(
        encrypt(nonce + i.to_bytes(4, "big"))
        for i in range((size + 15) // 16))
    # XOR the whole stream in one bignum operation.
    stream = int.from_bytes(data, "little") \
        ^ int.from_bytes(keystream[:size], "little")
    return stream.to_bytes(size, "little")


MAC_LEN = 32


def seal_aead(key: bytes, nonce: bytes, plaintext: bytes,
              associated_data: bytes = b"") -> bytes:
    """Encrypt-then-MAC AEAD: AES-256-CTR + SHA3-256 tag.

    The tag binds the key, nonce, associated data and ciphertext; the
    layout is ``ciphertext || tag`` (tag is :data:`MAC_LEN` bytes).
    """
    ciphertext = aes_ctr(key, nonce, plaintext)
    tag = _mac(key, nonce, associated_data, ciphertext)
    return ciphertext + tag


def open_aead(key: bytes, nonce: bytes, sealed: bytes,
              associated_data: bytes = b"") -> bytes:
    """Authenticate and decrypt :func:`seal_aead` output.

    Raises ``ValueError`` on authentication failure.
    """
    if len(sealed) < MAC_LEN:
        raise ValueError("sealed blob too short")
    ciphertext, tag = sealed[:-MAC_LEN], sealed[-MAC_LEN:]
    expected = _mac(key, nonce, associated_data, ciphertext)
    if not _constant_time_equal(tag, expected):
        raise ValueError("AEAD authentication failed")
    return aes_ctr(key, nonce, ciphertext)


def _mac(key: bytes, nonce: bytes, associated_data: bytes,
         ciphertext: bytes) -> bytes:
    mac_key = sha3_256(b"convolve-aead-mac" + key)
    header = (len(associated_data).to_bytes(8, "big")
              + len(ciphertext).to_bytes(8, "big"))
    return sha3_256(mac_key + nonce + header + associated_data + ciphertext)


def _constant_time_equal(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
