"""One numpy NTT engine for both lattice schemes.

ML-KEM (FIPS 203) and ML-DSA (FIPS 204) both compute over
Z_q[x]/(x^256+1) with the same Cooley-Tukey / Gentleman-Sande
butterfly schedule over bit-reversed twiddles; they differ only in q,
the twiddle table and where the butterflies stop.  ML-DSA runs all
eight layers down to length-1 butterflies (256 linear factors,
n^-1 = 256^-1); ML-KEM stops after seven, at length 2 (128 degree-1
factors, n^-1 = 128^-1), and multiplies those factors in its own base
multiplication.  :class:`NttRing` is that schedule, parameterised by
``(q, zetas, min_length)``; every transform runs on a ``(rows, 256)``
int64 batch.

Both standards also pack coefficients little-endian, so every
fixed-width encoding is one vectorized bit-field pass over the whole
batch: :func:`pack_bits` and :func:`unpack_bits`.  Each polynomial
occupies a whole number of bytes (256 * width bits), so packing a
flattened multi-poly batch equals concatenating the per-poly packs.

The loop forms these are pinned against live with the tests, in
``tests/crypto_reference.py``.
"""

from __future__ import annotations

import numpy as np

N = 256


class NttRing:
    """The batched forward/inverse NTT of Z_q[x]/(x^256+1).

    ``zetas`` is the bit-reversed twiddle table in the standard's
    order (``zetas[1]`` is the first butterfly's); the transforms run
    the layers from length 128 down to ``min_length``.
    """

    __slots__ = ("q", "n_inv", "_fwd", "_inv")

    def __init__(self, q: int, zetas, min_length: int):
        self.q = q
        self.n_inv = pow(N // min_length, q - 2, q)
        fwd = []
        inv = []
        length = 128
        while length >= min_length:
            blocks = N // (2 * length)
            fwd.append((length, np.array(zetas[blocks:2 * blocks],
                                         dtype=np.int64)[:, None]))
            inv.append((length, np.array(
                [q - zetas[2 * blocks - 1 - b] for b in range(blocks)],
                dtype=np.int64)[:, None]))
            length //= 2
        self._fwd = tuple(fwd)
        self._inv = tuple(reversed(inv))

    def ntt(self, arr: np.ndarray) -> np.ndarray:
        """Forward NTT of a ``(rows, 256)`` int64 batch, reduced mod q.

        Lazy reduction: only the twiddle product is reduced per layer,
        sums and differences stay unreduced (bounded by 9q, products by
        9q^2 < 2^50 for ML-DSA's q — exact in int64) and one final pass
        normalizes into [0, q).  The butterflies write in place, through
        one half-width scratch array for the twiddled half.
        """
        q = self.q
        out = arr % q
        rows = out.shape[0]
        scratch = np.empty((rows, N // 2), dtype=np.int64)
        for length, zetas in self._fwd:
            v = out.reshape(rows, -1, 2, length)
            lo = v[:, :, 0, :]
            hi = v[:, :, 1, :]
            t = scratch.reshape(rows, -1, length)
            np.multiply(hi, zetas, out=t)
            np.remainder(t, q, out=t)
            np.subtract(lo, t, out=hi)
            np.add(lo, t, out=lo)
        np.remainder(out, q, out=out)
        return out

    def intt(self, arr: np.ndarray) -> np.ndarray:
        """Inverse NTT of a ``(rows, 256)`` int64 batch; accepts
        unreduced (even negative) input and returns coefficients in
        [0, q).

        Lazy reduction: sums double per layer (bounded by 256q after
        eight layers, twiddle products by 512q^2 < 2^56 for ML-DSA's
        q — exact in int64), with one reduction per layer on the
        twiddled half and a final normalization times n^-1.  In place,
        like :meth:`ntt`.
        """
        q = self.q
        out = arr % q
        rows = out.shape[0]
        scratch = np.empty((rows, N // 2), dtype=np.int64)
        for length, zetas in self._inv:
            v = out.reshape(rows, -1, 2, length)
            lo = v[:, :, 0, :]
            hi = v[:, :, 1, :]
            diff = scratch.reshape(rows, -1, length)
            np.subtract(lo, hi, out=diff)
            np.add(lo, hi, out=lo)
            np.multiply(diff, zetas, out=diff)
            np.remainder(diff, q, out=hi)
        np.multiply(out, self.n_inv, out=out)
        np.remainder(out, q, out=out)
        return out


def pack_bits(arr: np.ndarray, width: int) -> np.ndarray:
    """Pack each row of a ``(rows, n)`` int64 batch of values < 2^width
    (``width`` <= 32) at ``width`` bits per value, little-endian;
    returns ``(rows, n*width/8)`` uint8.

    Each value's low ``width`` bits are spread from its smallest
    little-endian word that holds them, one uint8 per bit.
    """
    rows = arr.shape[0]
    size = 1 if width <= 8 else 2 if width <= 16 else 4
    octets = arr.astype(f"<u{size}").view(np.uint8).reshape(rows, -1, size)
    bits = np.unpackbits(octets, axis=2, count=width, bitorder="little")
    return np.packbits(bits.reshape(rows, -1), axis=1, bitorder="little")


def unpack_bits(data: bytes, rows: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``data`` split into ``rows``
    equal blocks of ``width``-bit little-endian values, as a
    ``(rows, len(data)*8/(rows*width))`` int64 batch.

    Every ``width`` bytes hold eight whole values, value ``j`` starting
    at bit ``j * width``.  Over an unaligned little-endian uint32 view
    with one row per such group, one gather takes each value's first
    four bytes, and a shift and a mask finish it (``width`` <= 25, so
    no value reaches a fifth byte).
    """
    buffer = bytes(data) + bytes(3)
    groups = len(data) // width
    words = np.ndarray((groups, width), dtype="<u4", buffer=buffer,
                       strides=(width, 1))
    first, shift = np.divmod(np.arange(0, 8 * width, width), 8)
    values = words[:, first]
    values >>= shift.astype(np.uint32)
    values &= (1 << width) - 1
    # The gather comes out column-major; the cast restores row order.
    return values.astype(np.int64, order="C").reshape(rows, -1)
