"""Bit-level adder-tree model with switching-activity tracking.

The paper's CIM macro (Section III-C) multiplies binary inputs with
4-bit SRAM weights and feeds the products into an adder tree "which
subsequently accumulates the products of all inputs and weights in a
MAC accumulator".  The attack observes that "the switching activity of
the accumulator can be confined to the desired level through input
manipulation" — so the simulator must model exactly that: per-node
values whose cycle-to-cycle Hamming distance is the power signal.
"""

from __future__ import annotations

import numpy as np


def hamming_weight(value: int) -> int:
    """Number of set bits (the quantity phase 1 clusters on)."""
    return bin(value).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Bit flips between two register states."""
    return hamming_weight(a ^ b)


#: The macro's stored weights are 4-bit unsigned values.
WEIGHT_BITS = 4
WEIGHT_MAX = (1 << WEIGHT_BITS) - 1


def _narrowest_uint(peak: int) -> type:
    """Smallest unsigned numpy dtype that holds ``peak``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if peak <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def tree_nodes(length: int, *shape: int) -> "np.ndarray":
    """Zeroed node-major buffer for :func:`fresh_tree_activity`.

    The buffer is ``nodes[node, *shape]``: one row per adder-tree node
    of a ``length``-leaf tree, leaves first and the root last, with a
    zero pad row after every odd-width level so that each level sums
    adjacent row pairs.  Its dtype is the smallest unsigned type that
    holds the largest possible root, ``WEIGHT_MAX * length``: uint8 up
    to 17 leaves, uint16 up to 4369, uint32 above.
    """
    rows, size = 1, length
    while size > 1:
        rows += size + size % 2
        size = (size + 1) // 2
    return np.zeros((rows, *shape),
                    dtype=_narrowest_uint(WEIGHT_MAX * length))


def fresh_tree_activity(nodes: "np.ndarray", length: int) -> "np.ndarray":
    """Batched from-reset tree evaluation over a :func:`tree_nodes` buffer.

    The caller writes the leaf products into ``nodes[:length]``; every
    column is one evaluation of a freshly reset :class:`AdderTree`.
    Each level is one ``np.add`` of its even and odd rows into the next
    level's rows, so ``nodes[-1]`` becomes the root sum.  From the
    all-zero state every node's Hamming distance equals the Hamming
    weight of its new value, so a column's switching activity is the
    popcount sum over every node — exactly what ``AdderTree.evaluate``
    reports after ``reset()``.

    Returns that activity per column, in the smallest unsigned dtype
    that holds it.  On return ``nodes`` holds each node's Hamming
    weight rather than its value (``nodes[-1]`` is the root's).
    """
    start, size = 0, length
    while size > 1:
        half = (size + 1) // 2
        top = start + 2 * half
        np.add(nodes[start:top:2], nodes[start + 1:top:2],
               out=nodes[top:top + half])
        start, size = top, half
    bits = nodes.shape[0] * 8 * nodes.itemsize
    return np.bitwise_count(nodes, out=nodes).sum(
        axis=0, dtype=_narrowest_uint(bits))


class AdderTree:
    """A binary adder tree over ``leaf_count`` product inputs.

    The tree keeps its internal node values between evaluations, so an
    evaluation reports the true switching activity (sum of Hamming
    distances of every node, including the leaves) relative to the
    previous cycle — the dominant dynamic-power term of the macro.
    """

    def __init__(self, leaf_count: int):
        if leaf_count < 1:
            raise ValueError("adder tree needs at least one leaf")
        self.leaf_count = leaf_count
        # levels[0] = leaves; each higher level halves (rounding up).
        self._levels = []
        size = leaf_count
        while size > 1:
            self._levels.append([0] * size)
            size = (size + 1) // 2
        self._levels.append([0] * 1)

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def evaluate(self, products: list) -> tuple:
        """Sum the products; returns (total, switching_activity).

        ``switching_activity`` counts every bit flip in every tree node
        relative to the previous evaluation.
        """
        if len(products) != self.leaf_count:
            raise ValueError(
                f"expected {self.leaf_count} products, got "
                f"{len(products)}")
        activity = 0
        current = list(products)
        for level_index, stored in enumerate(self._levels):
            for i, value in enumerate(current):
                activity += hamming_distance(stored[i], value)
                stored[i] = value
            if len(current) == 1:
                break
            current = [
                current[2 * i] + (current[2 * i + 1]
                                  if 2 * i + 1 < len(current) else 0)
                for i in range((len(current) + 1) // 2)]
        return self._levels[-1][0], activity

    def reset(self) -> None:
        """Clear all stored node values (power-cycle the macro)."""
        for level in self._levels:
            for i in range(len(level)):
                level[i] = 0
