"""Pure-Python AES-128/192/256 (FIPS 197) with CTR mode and an AEAD.

AES-256 is CONVOLVE's payload-encryption algorithm (Section III-A,
Table II): HADES explores masked hardware designs of exactly this cipher.
This module is the functional software reference; the *hardware design
space* of AES lives in :mod:`repro.hades.library.aes`.

The S-box is derived programmatically from the GF(2^8) inversion +
affine transform definition rather than transcribed, so a typo
cannot silently corrupt the cipher; FIPS 197 known-answer vectors are
enforced in the test suite.

Encryption runs on a stacked T-table (SubBytes fused with MixColumns,
derived from the generated S-box) over an ``(n, 16)`` uint8 batch of
blocks: CTR mode encrypts every counter block in one pass, and
:meth:`AES.encrypt_block` is the same kernel at one block.
``aes_encrypt_block`` in ``tests/crypto_reference.py`` keeps the
schoolbook round it is pinned against.
"""

from __future__ import annotations

import numpy as np

from ..runtime.memo import Memo
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


def _build_t_table() -> np.ndarray:
    """The stacked T-table fusing SubBytes with MixColumns, as words.

    Entry ``256 * r + x`` packs the four output-row bytes (row 0 first
    in memory) that input byte ``x`` contributes when it arrives in row
    ``r`` of a column, so an encrypt round is one gather plus an XOR of
    four words per column.  The words are only XORed and viewed back as
    bytes, so the host's byte order never matters.
    """
    mix = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
    table = np.empty((4, 256, 4), dtype=np.uint8)
    for x in range(256):
        s = SBOX[x]
        times = (0, s, _xtime(s), _xtime(s) ^ s)
        for r in range(4):
            table[r, x] = [times[mix[i][r]] for i in range(4)]
    return table.view(np.uint32).reshape(1024)


_T = _build_t_table()
_SBOX = np.array(SBOX, dtype=np.uint8)
#: ShiftRows as a gather on a block's 16 bytes (column-major): byte
#: (column c, row r) comes from column c + r ...
_SHIFT_ROWS = np.array([[4 * ((c + r) % 4) + r for r in range(4)]
                        for c in range(4)])
#: ... and selects row r's quarter of the T-table.
_T_ROW = np.array([[256 * r for r in range(4)] for _ in range(4)])

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
        self._rk = np.array(self._round_keys, dtype=np.uint8)
        self._rk_words = self._rk.view(np.uint32)

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
        return self.encrypt_blocks(
            np.frombuffer(block, dtype=np.uint8).reshape(1, 16)).tobytes()

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 batch of blocks, each the
        column-major 4x4 state, with one T-table gather per round."""
        words = self._rk_words
        state = blocks ^ self._rk[0]
        for r in range(1, self.rounds):
            cols = _T.take(state.take(_SHIFT_ROWS, axis=1) + _T_ROW)
            state = (cols[:, :, 0] ^ cols[:, :, 1] ^ cols[:, :, 2]
                     ^ cols[:, :, 3] ^ words[r]).view(np.uint8)
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        return _SBOX[state.take(_SHIFT_ROWS.reshape(16), axis=1)] \
            ^ self._rk[self.rounds]


#: Outputs of :func:`aes_ctr`, keyed on the exact ``(key, nonce, data)``.
CTR_MEMO = Memo(maxsize=32)


def aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR keystream XOR (encryption and decryption are identical).

    ``nonce`` must be 12 bytes; the remaining 4 bytes hold a big-endian
    block counter starting at 0.  Every counter block is encrypted in
    one batch.  Memoized in :data:`CTR_MEMO`.
    """
    if len(nonce) != 12:
        raise ValueError("CTR nonce must be 12 bytes")
    return CTR_MEMO.get_or_build((bytes(key), bytes(nonce), bytes(data)),
                                 lambda: _ctr(key, nonce, data))


def _ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    size = len(data)
    blocks = np.empty(((size + 15) // 16, 16), dtype=np.uint8)
    blocks[:, :12] = np.frombuffer(nonce, dtype=np.uint8)
    blocks[:, 12:] = np.arange(len(blocks), dtype=">u4")[:, None] \
        .view(np.uint8)
    keystream = AES(key).encrypt_blocks(blocks)
    return (np.frombuffer(data, dtype=np.uint8)
            ^ keystream.reshape(-1)[:size]).tobytes()


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
