"""SHA-3 and SHAKE (FIPS 202).

The CONVOLVE paper (Section III-A/III-B) uses Keccak both as a hardware
accelerator target (it is a subroutine of BIKE and CRYSTALS-Dilithium) and
as the measurement hash of the Keystone security monitor.  This module is
the hash layer used by the TEE substrate (:mod:`repro.tee`) and by
ML-DSA (:mod:`repro.crypto.mldsa`).

The simulator hashes megabytes (ROM images, SM binaries, ML-DSA
expansion), so the public ``sha3_*``/``shake*`` functions and the
incremental :class:`Shake128`/:class:`Shake256` run CPython's C
implementation of the same FIPS 202 functions in :mod:`hashlib`
(always present on the Python versions this package supports).  The
test suite pins them byte-identical to a from-scratch loop-form
Keccak-f[1600] sponge kept with the tests (``tests/crypto_reference.py``).
"""

from __future__ import annotations

import hashlib


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
