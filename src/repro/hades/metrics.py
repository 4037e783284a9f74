"""Performance metrics and optimization goals for HADES.

Paper Section III-A: "HADES considers several performance metrics such
as cycle count, latency, area, or, in the case of masked
implementations, randomness requirements.  For trade-offs, HADES also
considers common combinations such as the area-latency-product."

Table II uses exactly the goals modelled here: L (latency), A (area),
R (randomness), ALP (area-latency product) and ALRP
(area-latency-randomness product).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Metrics:
    """Predicted implementation cost of one design point.

    Attributes
    ----------
    area_kge:
        Silicon area in kilo gate equivalents.
    latency_cc:
        End-to-end latency in clock cycles at the reference clock
        (cycle count scaled by the design's relative critical path, so
        that unrolling cannot cheat the metric).
    randomness_bits:
        Fresh random bits consumed per operation (0 when unmasked).
    """

    area_kge: float
    latency_cc: float
    randomness_bits: float = 0.0

    def __post_init__(self):
        if self.area_kge < 0 or self.latency_cc < 0 or \
                self.randomness_bits < 0:
            raise ValueError("metrics must be non-negative")

    @property
    def area_latency_product(self) -> float:
        return self.area_kge * self.latency_cc

    @property
    def area_latency_randomness_product(self) -> float:
        return self.area_kge * self.latency_cc * self.randomness_bits


class OptimizationGoal(Enum):
    """What the explorer minimises (Table II column "Opt.")."""

    LATENCY = "L"
    AREA = "A"
    RANDOMNESS = "R"
    AREA_LATENCY = "ALP"
    AREA_LATENCY_RANDOMNESS = "ALRP"

    def score(self, metrics: Metrics) -> float:
        """The scalar this goal minimises (lower is better)."""
        if self is OptimizationGoal.LATENCY:
            return metrics.latency_cc
        if self is OptimizationGoal.AREA:
            return metrics.area_kge
        if self is OptimizationGoal.RANDOMNESS:
            return metrics.randomness_bits
        if self is OptimizationGoal.AREA_LATENCY:
            return metrics.area_latency_product
        return metrics.area_latency_randomness_product

    @property
    def needs_masking(self) -> bool:
        """R and ALRP are only meaningful for masked designs (d >= 1)."""
        return self in (OptimizationGoal.RANDOMNESS,
                        OptimizationGoal.AREA_LATENCY_RANDOMNESS)
