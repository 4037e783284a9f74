"""TVLA-style leakage assessment (Welch's t-test).

The standard fixed-vs-random methodology: collect power samples for a
fixed input and for random inputs; a |t| statistic above 4.5 indicates
exploitable first-order leakage.  Used by the benches to show that the
unprotected macro leaks and the masked macro does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .power import PowerModel

#: The conventional TVLA significance threshold.
T_THRESHOLD = 4.5


def welch_t(sample_a, sample_b) -> float:
    """Welch's t statistic between two sample sets."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two samples per group")
    var_a = a.var(ddof=1) / len(a)
    var_b = b.var(ddof=1) / len(b)
    denominator = np.sqrt(var_a + var_b)
    if denominator == 0:
        return 0.0 if a.mean() == b.mean() else float("inf")
    return float((a.mean() - b.mean()) / denominator)


@dataclass
class LeakageAssessment:
    """Outcome of a fixed-vs-random-weights TVLA campaign."""

    t_statistic: float
    traces: int

    @property
    def leaks(self) -> bool:
        return abs(self.t_statistic) > T_THRESHOLD


def assess_macro(macro_factory, weights: list) -> LeakageAssessment:
    """Fixed-vs-random-*weights* t-test on a CIM macro design, 300
    traces per group under unit-sigma noise.

    The leakage of interest is weight dependence, so the two groups
    hold the *inputs* distribution identical and vary the secret:
    group A runs the macro with the fixed ``weights`` under test, group
    B with fresh random weights per trace.  A design whose power
    depends on the stored values separates the groups; a properly
    masked design does not.

    ``macro_factory(weights) -> macro`` selects the design under test
    (plain, masked, shuffled, ...).
    """
    traces = 300
    rng = np.random.default_rng(0)
    power = PowerModel(noise_sigma=1.0, seed=1)

    length = len(weights)
    # Fixed full activation: every trace exercises every weight, the
    # strongest first-order test vector for this macro.
    mask = [1] * length
    fixed_macro = macro_factory(list(weights))
    mask_rows = np.tile(np.asarray(mask, dtype=np.int64), (traces, 1))
    fixed_toggles = fixed_macro.query_fresh_many(mask_rows)
    # The random group needs a fresh macro per trace (each carries its
    # own countermeasure RNG), so only the weight draws batch; the
    # (traces, length) draw consumes ``rng`` exactly like the scalar
    # per-trace draws.
    random_weights = rng.integers(0, 16, size=(traces, length))
    random_toggles = np.empty(traces, dtype=np.int64)
    for t in range(traces):
        random_macro = macro_factory([int(w) for w in random_weights[t]])
        random_toggles[t] = random_macro.query_fresh(mask)
    # The scalar loop alternated fixed/random measurements, so the noise
    # stream must see the toggles in that interleaved order.
    interleaved = np.empty(2 * traces, dtype=np.int64)
    interleaved[0::2] = fixed_toggles
    interleaved[1::2] = random_toggles
    samples = power.measure_many(interleaved)
    return LeakageAssessment(
        t_statistic=welch_t(samples[0::2], samples[1::2]),
        traces=2 * traces)
