"""Side-channel countermeasures for the CIM macro.

The paper's conclusion for CONVOLVE: "side-channel attacks and
counter-measures must be meticulously analyzed and integrated to enable
adoption in industry."  Two classic defences are modelled so that the
attack benches can ablate them:

* **Arithmetic masking** — every stored weight is split into two
  arithmetic shares whose sum (mod 2^b) is the weight; each operation
  processes re-randomised shares, so the accumulator's switching
  activity is decorrelated from the weight value.
* **Input shuffling** — the mapping between logical and physical weight
  columns is permuted per operation, destroying the attacker's ability
  to address a chosen weight.
"""

from __future__ import annotations

import numpy as np

from .adder_tree import fresh_tree_activity, hamming_distance, tree_nodes
from .macro import DigitalCimMacro, WEIGHT_MAX


class MaskedCimMacro(DigitalCimMacro):
    """Arithmetically masked macro at arbitrary order.

    Every operation splits each weight into ``order + 1`` fresh random
    shares and evaluates the tree once per share domain; the
    recombination happens in a register the power model does not
    expose (modelled as a balanced dual-rail recombiner).  The mean of
    the visible switching activity is weight-independent at any order;
    the *variance* still leaks at order 1 (see
    :mod:`repro.cim.second_order`) and flattens from order 2 on —
    matching masking theory, where a d-th-order scheme resists attacks
    combining up to d statistical moments.
    """

    SHARE_MODULUS = WEIGHT_MAX + 1

    def __init__(self, weights: list, seed: int = 0, order: int = 1):
        super().__init__(weights)
        if order < 1:
            raise ValueError("masking order must be >= 1")
        self.order = order
        self._rng = np.random.default_rng(seed)

    def operate(self, inputs: list) -> tuple:
        if len(inputs) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} inputs, got {len(inputs)}")
        if any(bit not in (0, 1) for bit in inputs):
            raise ValueError("inputs must be binary activation masks")
        share_vectors = []
        remaining = list(self.weights)
        for _ in range(self.order):
            fresh = [int(self._rng.integers(self.SHARE_MODULUS))
                     for _ in self.weights]
            share_vectors.append(fresh)
            remaining = [(w - r) % self.SHARE_MODULUS
                         for w, r in zip(remaining, fresh)]
        share_vectors.append(remaining)
        total = 0
        toggles = 0
        for share_vector in share_vectors:
            # Precharge the tree between share passes: without it the
            # node transitions between domains leak the weight through
            # the Hamming-distance model (the classic arithmetic-
            # masking pitfall).  With precharge, each pass toggles by
            # the Hamming weight of uniformly distributed share sums.
            self.tree.reset()
            products = [bit * share
                        for bit, share in zip(inputs, share_vector)]
            share_sum, tree_activity = self.tree.evaluate(products)
            toggles += tree_activity
            total += share_sum
        true_total = sum(bit * w for bit, w in zip(inputs, self.weights))
        new_mac = true_total
        # The recombination register is dual-rail balanced: its
        # contribution is constant per operation.
        toggles += self.tree.depth + 1
        mac_activity = hamming_distance(self.mac_register, new_mac)
        _ = mac_activity                     # hidden behind the balancing
        self.mac_register = new_mac
        return new_mac, toggles

    def _fresh_toggles_batch(self, masks: "np.ndarray",
                             out: "np.ndarray") -> None:
        traces, length = masks.shape
        order = self.order
        # One batched draw consumes the generator stream exactly as the
        # per-trace, per-order, per-weight scalar draws do (row-major).
        # It stays int64: a narrower draw changes the stream.
        fresh = self._rng.integers(
            self.SHARE_MODULUS, size=(traces, order, length))
        nodes = tree_nodes(length, order + 1, traces)
        leaves = nodes[:length]              # [weight, share, trace]
        leaves[:, :order] = fresh.astype(nodes.dtype).transpose(2, 1, 0)
        # The last share is the weight minus the others, mod 16; the
        # unsigned wraparound is mod a multiple of 16, so a mask of the
        # low bits finishes the reduction.
        last = leaves[:, order]
        np.subtract(np.asarray(self.weights, nodes.dtype)[:, None],
                    leaves[:, 0], out=last)
        for share in range(1, order):
            np.subtract(last, leaves[:, share], out=last)
        np.bitwise_and(last, self.SHARE_MODULUS - 1, out=last)
        leaves *= masks.astype(nodes.dtype).T[:, None, :]
        activity = fresh_tree_activity(nodes, length)
        np.sum(activity, axis=0, dtype=np.int64, out=out)
        out += self.tree.depth + 1


class ShuffledCimMacro(DigitalCimMacro):
    """Macro with per-operation random column permutation.

    The attacker's input mask addresses *physical* columns, but the
    weights move under a fresh secret permutation every operation, so a
    one-hot query hits a random weight.
    """

    def __init__(self, weights: list, seed: int = 0):
        super().__init__(weights)
        self._rng = np.random.default_rng(seed)

    def operate(self, inputs: list) -> tuple:
        permutation = self._rng.permutation(len(self.weights))
        shuffled = [self.weights[p] for p in permutation]
        original = self.weights
        self.weights = shuffled
        try:
            return super().operate(inputs)
        finally:
            self.weights = original

    def _leaf_weights(self, traces: int, dtype) -> "np.ndarray":
        # One ``permuted`` call shuffles each row of the identity in
        # turn, drawing exactly what per-trace ``permutation`` calls of
        # the scalar path draw.
        length = len(self.weights)
        permutations = self._rng.permuted(
            np.tile(np.arange(length), (traces, 1)), axis=1)
        return np.asarray(self.weights, dtype)[permutations.T]
