"""Power model: switching activity -> noisy power samples.

The paper's toolchain (Genus + Questasim + Spyglass at TSMC 40 nm)
produces power traces whose operation-level aggregate correlates with
the adder tree's switching activity.  This model maps toggle counts to
power through a linear CMOS dynamic-power term plus a static offset and
Gaussian measurement noise; ``noise_sigma=0`` reproduces the paper's
"noise-free environment" claims.
"""

from __future__ import annotations

import numpy as np


#: Energy per toggled node bit, arbitrary power units.
ENERGY_PER_TOGGLE = 1.0
#: Static/leakage baseline per operation.
STATIC_POWER = 5.0


class PowerModel:
    """Measurement channel of the attacker's oscilloscope."""

    def __init__(self, noise_sigma: float = 0.0, seed: int = 0):
        if noise_sigma < 0:
            raise ValueError("noise must be non-negative")
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)

    def measure(self, toggles: int) -> float:
        """One power sample for an operation with ``toggles`` bit flips."""
        power = STATIC_POWER + ENERGY_PER_TOGGLE * toggles
        if self.noise_sigma:
            power += self._rng.normal(0.0, self.noise_sigma)
        return float(power)

    def measure_many(self, toggles) -> np.ndarray:
        """Power samples for a whole toggle-count batch.

        Bit-identical to calling :meth:`measure` per element: the noise
        generator draws one normal per sample in order (and none when
        ``noise_sigma`` is zero), so stream consumption matches the
        scalar loop exactly.
        """
        power = STATIC_POWER + ENERGY_PER_TOGGLE * np.asarray(
            toggles, dtype=float)
        if self.noise_sigma:
            power = power + self._rng.normal(
                0.0, self.noise_sigma, size=power.shape)
        return power

    def trace(self, macro, inputs: list, repetitions: int = 1) -> np.ndarray:
        """Repeated fresh-query measurements of one input mask."""
        if hasattr(macro, "query_fresh_many"):
            # Macro and noise draws live on separate generators, so
            # query-then-measure batching consumes both streams exactly
            # as the interleaved scalar loop does.
            masks = np.tile(np.asarray(inputs, dtype=np.int64),
                            (repetitions, 1))
            return self.measure_many(macro.query_fresh_many(masks))
        samples = [self.measure(macro.query_fresh(inputs))
                   for _ in range(repetitions)]
        return np.asarray(samples)
