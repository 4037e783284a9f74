"""Cost models for Boolean masking at arbitrary order.

HADES's headline feature (Section III-A): "any arbitrary design can
automatically be masked at any masking order without additional
implementation effort".  A design masked at order ``d`` splits every
secret into ``d + 1`` shares; linear gates are replicated per share
while non-linear (AND) gates become *gadgets* (HPC2-style) whose area
grows quadratically in the share count and which consume fresh
randomness every evaluation.

The constants below are calibrated so that the AES-256 case study lands
in the neighbourhood of the paper's Table II (kGE of a NAND2-equivalent
40 nm library).
"""

from __future__ import annotations


def shares(order: int) -> int:
    """Number of shares for masking order ``d`` (``d + 1``)."""
    if order < 0:
        raise ValueError("masking order must be >= 0")
    return order + 1


def and_gadget_area_ge(order: int) -> float:
    """Gate-equivalent area of one masked AND (HPC2-like gadget).

    Order 0 degenerates to a plain AND gate.  The gadget needs
    ``s^2`` partial products, ``s * (s - 1)`` refresh XORs and one
    register layer per share.
    """
    s = shares(order)
    if order == 0:
        return 1.5
    return 3.0 * s * s + 7.0 * s * (s - 1) + 6.0 * s


def and_gadget_randomness_bits(order: int) -> int:
    """Fresh random bits per masked-AND evaluation: d*(d+1)/2."""
    return order * (order + 1) // 2


def and_gadget_latency_stages(order: int) -> int:
    """Pipeline register stages a masked AND inserts (0 when unmasked).

    HPC-style gadgets need register stages for glitch robustness; the
    stage count is independent of the order, which is why Table II shows
    the same latency-optimal cycle count for d = 1 and d = 2.
    """
    return 0 if order == 0 else 1


def linear_area_factor(order: int) -> int:
    """Linear layers are replicated once per share."""
    return shares(order)


def register_area_ge(bits: int, order: int) -> float:
    """Flip-flop area for ``bits`` of (shared) state, ~4.5 GE per FF."""
    return 4.5 * bits * shares(order)

