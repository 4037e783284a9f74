"""Keccak-f[1600], SHA-3 and SHAKE (FIPS 202).

The CONVOLVE paper (Section III-A/III-B) uses Keccak both as a hardware
accelerator target (it is a subroutine of BIKE and CRYSTALS-Dilithium) and
as the measurement hash of the Keystone security monitor.  This module is
the hash layer used by the TEE substrate (:mod:`repro.tee`) and by
ML-DSA (:mod:`repro.crypto.mldsa`).

The permutation is a fully unrolled Keccak-f[1600] round over 25 local
lane variables (generated and pinned by ``scripts/gen_keccak_unrolled.py``);
the loop form and a from-scratch sponge live in
:mod:`repro.crypto.reference`, pinned byte-equal to this module by
hypothesis property tests.

The simulator hashes megabytes (ROM images, SM binaries, ML-DSA
expansion), so the public ``sha3_*``/``shake*`` functions and the
incremental :class:`Shake128`/:class:`Shake256` run CPython's C
implementation of the same FIPS 202 functions in :mod:`hashlib`
(always present on the Python versions this package supports), which
the test suite pins byte-identical to the from-scratch sponge.
"""

from __future__ import annotations

import hashlib

from ..obs.perf import PERF

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


# BEGIN GENERATED (scripts/gen_keccak_unrolled.py)
def keccak_f1600(lanes: list) -> list:
    """Apply the Keccak-f[1600] permutation to 25 lanes (5x5, row-major x).

    ``lanes`` is a flat list of 25 integers where lane ``(x, y)`` lives at
    index ``x + 5 * y``.  A new list is returned; the input is not mutated.

    The round body is fully unrolled over 25 locals (generated and pinned
    by ``scripts/gen_keccak_unrolled.py``); the loop form it is tested
    against is :func:`repro.crypto.reference.keccak_f1600`.
    """
    if PERF.enabled:
        PERF.inc("crypto.keccak.permutations")
    m = _MASK64
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for rc in ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & m)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & m)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & m)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & m)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & m)
        # rho + pi (theta's d folded into the rotation input)
        b0 = a0 ^ d0
        t = a5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & m
        t = a10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & m
        t = a15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & m
        t = a20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & m
        t = a1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & m
        t = a6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & m
        t = a11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & m
        t = a16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & m
        t = a21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & m
        t = a2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & m
        t = a7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & m
        t = a12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & m
        t = a17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & m
        t = a22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & m
        t = a3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & m
        t = a8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & m
        t = a13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & m
        t = a18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & m
        t = a23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & m
        t = a4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & m
        t = a9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & m
        t = a14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & m
        t = a19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & m
        t = a24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & m
        # chi + iota
        a0 = (b0 ^ ((b1 ^ m) & b2)) ^ rc
        a1 = (b1 ^ ((b2 ^ m) & b3))
        a2 = (b2 ^ ((b3 ^ m) & b4))
        a3 = (b3 ^ ((b4 ^ m) & b0))
        a4 = (b4 ^ ((b0 ^ m) & b1))
        a5 = (b5 ^ ((b6 ^ m) & b7))
        a6 = (b6 ^ ((b7 ^ m) & b8))
        a7 = (b7 ^ ((b8 ^ m) & b9))
        a8 = (b8 ^ ((b9 ^ m) & b5))
        a9 = (b9 ^ ((b5 ^ m) & b6))
        a10 = (b10 ^ ((b11 ^ m) & b12))
        a11 = (b11 ^ ((b12 ^ m) & b13))
        a12 = (b12 ^ ((b13 ^ m) & b14))
        a13 = (b13 ^ ((b14 ^ m) & b10))
        a14 = (b14 ^ ((b10 ^ m) & b11))
        a15 = (b15 ^ ((b16 ^ m) & b17))
        a16 = (b16 ^ ((b17 ^ m) & b18))
        a17 = (b17 ^ ((b18 ^ m) & b19))
        a18 = (b18 ^ ((b19 ^ m) & b15))
        a19 = (b19 ^ ((b15 ^ m) & b16))
        a20 = (b20 ^ ((b21 ^ m) & b22))
        a21 = (b21 ^ ((b22 ^ m) & b23))
        a22 = (b22 ^ ((b23 ^ m) & b24))
        a23 = (b23 ^ ((b24 ^ m) & b20))
        a24 = (b24 ^ ((b20 ^ m) & b21))
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]
# END GENERATED


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 digest of ``data`` (32 bytes)."""
    return hashlib.sha3_256(data).digest()


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 digest of ``data`` (64 bytes)."""
    return hashlib.sha3_512(data).digest()


def shake256(data: bytes, out_len: int) -> bytes:
    """SHAKE256 extendable-output function."""
    return hashlib.shake_256(data).digest(out_len)


class _IncrementalXof:
    """Absorb-then-stream XOF over a :mod:`hashlib` SHAKE object.

    :mod:`hashlib` squeezes only whole outputs, so reads are served from
    a squeezed buffer that grows geometrically (at least one rate block
    per squeeze).  By the XOF prefix property every read returns the
    same bytes as slicing one long digest.
    """

    _HASHLIB_NAME = None

    def __init__(self, data: bytes = b""):
        self._state = hashlib.new(self._HASHLIB_NAME)
        self._buffer = b""
        self._offset = 0
        self._reading = False
        if data:
            self.absorb(data)

    def absorb(self, data: bytes):
        if self._reading:
            raise RuntimeError("cannot absorb after squeezing")
        self._state.update(data)
        return self

    def read(self, length: int) -> bytes:
        self._reading = True
        end = self._offset + length
        if end > len(self._buffer):
            self._buffer = self._state.digest(
                max(end, 2 * len(self._buffer), self._state.block_size))
        out = self._buffer[self._offset:end]
        self._offset = end
        return out


class Shake128(_IncrementalXof):
    """Incremental SHAKE128 (absorb-then-stream)."""

    _HASHLIB_NAME = "shake_128"


class Shake256(_IncrementalXof):
    """Incremental SHAKE256 (absorb-then-stream)."""

    _HASHLIB_NAME = "shake_256"
