"""The digital SRAM compute-in-memory macro under attack.

Models the macro of Mir et al. [23] that the paper evaluates: a row of
4-bit weights in SRAM, bit-wise multiplication with binary input
activations (an AND per weight), an adder tree, and a MAC accumulator
register.  The attacker drives the binary inputs — "selective inclusion
or exclusion of 4-bit weights in the accumulation process by providing
binary input values as masks" — and observes power.
"""

from __future__ import annotations

import numpy as np

from ..obs.perf import PERF
from .adder_tree import (WEIGHT_BITS, WEIGHT_MAX, AdderTree,
                         fresh_tree_activity, hamming_distance, tree_nodes)


class DigitalCimMacro:
    """One CIM macro row: weights, adder tree, MAC accumulator.

    Parameters
    ----------
    weights:
        The stored 4-bit weights (the IP the attack extracts).

    Each operation replaces the MAC register (fresh accumulation), the
    configuration the paper analyses.
    """

    def __init__(self, weights: list):
        for w in weights:
            if not 0 <= w <= WEIGHT_MAX:
                raise ValueError(f"weight {w} outside 4-bit range")
        self.weights = list(weights)
        self.tree = AdderTree(len(weights))
        self.mac_register = 0

    def __len__(self) -> int:
        return len(self.weights)

    def reset(self) -> None:
        """Power-cycle: clear the tree state and the MAC register."""
        self.tree.reset()
        self.mac_register = 0

    def operate(self, inputs: list) -> tuple:
        """One MAC operation with binary ``inputs``.

        Returns ``(mac_value, toggles)`` where ``toggles`` is the total
        switching activity of the operation: adder-tree node flips plus
        MAC-register flips — the signal the power model scales.
        """
        if len(inputs) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} inputs, got {len(inputs)}")
        if any(bit not in (0, 1) for bit in inputs):
            raise ValueError("inputs must be binary activation masks")
        products = [bit * weight
                    for bit, weight in zip(inputs, self.weights)]
        total, tree_activity = self.tree.evaluate(products)
        mac_activity = hamming_distance(self.mac_register, total)
        self.mac_register = total
        return total, tree_activity + mac_activity

    def query_fresh(self, inputs: list) -> int:
        """The attacker's primitive: reset, operate once, return the
        switching activity of that single operation."""
        self.reset()
        _, toggles = self.operate(inputs)
        return toggles

    def _check_masks(self, masks) -> "np.ndarray":
        masks = np.asarray(masks, dtype=np.int64)
        if masks.ndim != 2 or masks.shape[1] != len(self.weights):
            raise ValueError(
                f"expected masks of shape (traces, {len(self.weights)}),"
                f" got {masks.shape}")
        if masks.size and (masks.min() < 0 or masks.max() > 1):
            raise ValueError("inputs must be binary activation masks")
        return masks

    def _fresh_toggles_batch(self, masks: "np.ndarray",
                             out: "np.ndarray") -> None:
        """Vectorized fresh-query toggles for ``masks`` rows, written to
        ``out`` (no state update; every row starts from the reset
        state): tree activity plus the MAC register's flips from zero,
        the popcount of the root."""
        traces, length = masks.shape
        nodes = tree_nodes(length, traces)
        leaves = nodes[:length]
        leaves[...] = masks.astype(nodes.dtype).T
        leaves *= self._leaf_weights(traces, nodes.dtype)
        activity = fresh_tree_activity(nodes, length)
        np.add(activity, nodes[-1], out=out, dtype=np.int64)

    def _leaf_weights(self, traces: int, dtype) -> "np.ndarray":
        """The weight under each leaf for ``traces`` operations, as a
        ``(length, 1)`` or ``(length, traces)`` array of ``dtype``."""
        return np.asarray(self.weights, dtype)[:, None]

    def query_fresh_many(self, masks) -> "np.ndarray":
        """Batch of fresh queries: one toggle count per row of ``masks``.

        Bit-identical to calling :meth:`query_fresh` once per row —
        including the macro's final register/RNG state, because the
        last row is replayed through the scalar path — but evaluates
        the first ``traces - 1`` rows in one numpy pass.
        """
        masks = self._check_masks(masks)
        count = masks.shape[0]
        toggles = np.empty(count, dtype=np.int64)
        if count == 0:
            return toggles
        self._fresh_toggles_batch(masks[:-1], toggles[:-1])
        if PERF.enabled:
            PERF.inc("cim.traces_vectorized", count - 1)
        toggles[-1] = self.query_fresh([int(bit) for bit in masks[-1]])
        return toggles


def one_hot(length: int, index: int) -> list:
    """Input mask activating only weight ``index``."""
    mask = [0] * length
    mask[index] = 1
    return mask


def subset_mask(length: int, indices) -> list:
    """Input mask activating exactly ``indices``."""
    mask = [0] * length
    for index in indices:
        mask[index] = 1
    return mask
