"""Known-input power analysis (linear-regression attack) on the CIM
macro.

A classical complement to the paper's two-phase chosen-input attack:
the attacker only *observes* random input activations (e.g. normal
inference traffic) and their power — the weaker attacker of Real &
Salvador's survey [21] who cannot drive the inputs.

Method (LRA, linear-regression analysis):

1. collect power samples for many random masks,
2. least-squares fit ``power ~ b0 + sum_c beta_c * mask_c``; the joint
   regression isolates each column's marginal power contribution from
   its co-activated neighbours (where a naive difference-of-means stays
   confounded by carry absorption in the adder tree),
3. classify each ``beta_c`` against per-Hamming-weight levels profiled
   on a simulated clone of the (public) design with diverse known
   weights.

The result is each column's Hamming weight — the same information as
the paper's phase 1, but from passive observation.  Accuracy is
measurably below the chosen-input attack's 100% (~85-95% on 16-column
macros), which quantifies exactly what the paper's input-manipulation
capability buys the attacker.  The chosen-input phase 2 is still
needed for exact value recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adder_tree import hamming_weight
from .macro import DigitalCimMacro
from .power import PowerModel

#: Traces of the profiling clone that fix the per-class beta levels.
PROFILE_TRACES = 3000

#: Profiling weights covering every 4-bit value once (all HW classes).

PROFILING_WEIGHTS = (0, 1, 3, 7, 15, 2, 5, 11, 4, 6, 13, 8, 9, 14, 10,
                     12)


@dataclass
class CpaResult:
    """Outcome of a known-input LRA campaign against one macro."""

    hw_estimates: list          # per-column estimated Hamming weight
    betas: list                 # per-column regression coefficient
    class_levels: dict          # profiled beta level per HW class
    traces_used: int

    def hw_accuracy(self, true_weights: list) -> float:
        correct = sum(1 for est, w in zip(self.hw_estimates,
                                          true_weights)
                      if est == hamming_weight(w))
        return correct / len(true_weights)


class CpaAttack:
    """Passive (known-input) Hamming-weight recovery via LRA."""

    def __init__(self, macro: DigitalCimMacro, power: PowerModel = None,
                 seed: int = 0):
        self.macro = macro
        self.power = power or PowerModel()
        self._rng = np.random.default_rng(seed)

    def _observe_betas(self, macro, traces: int, rng) -> np.ndarray:
        """Collect random-mask traces and regress out per-column
        contributions."""
        length = len(macro)
        masks = rng.integers(0, 2, size=(traces, length))
        samples = self.power.measure_many(macro.query_fresh_many(masks))
        design = np.hstack([np.ones((traces, 1)),
                            masks.astype(float)])
        coefficients, *_ = np.linalg.lstsq(design, samples, rcond=None)
        return coefficients[1:]

    def _profile_levels(self) -> dict:
        """Per-HW-class beta levels from ``PROFILE_TRACES`` traces of a
        simulated clone with known, class-diverse weights (the design is
        public; only the target's SRAM contents are secret)."""
        traces = PROFILE_TRACES
        length = len(self.macro)
        profile_weights = [PROFILING_WEIGHTS[i % len(PROFILING_WEIGHTS)]
                           for i in range(length)]
        clone = DigitalCimMacro(profile_weights)
        rng = np.random.default_rng(0xC1A)
        betas = self._observe_betas(clone, traces, rng)
        levels = {}
        for hw in range(5):
            members = [betas[c] for c in range(length)
                       if hamming_weight(profile_weights[c]) == hw]
            if members:
                levels[hw] = float(np.mean(members))
        return levels

    def run(self, traces: int = 2000) -> CpaResult:
        """Estimate every column's Hamming weight passively."""
        levels = self._profile_levels()
        betas = self._observe_betas(self.macro, traces, self._rng)
        hw_estimates = [
            min(levels, key=lambda hw: abs(levels[hw] - beta))
            for beta in betas]
        return CpaResult(hw_estimates=hw_estimates,
                         betas=[float(b) for b in betas],
                         class_levels=levels, traces_used=traces)
