"""Power/energy prediction for explored designs — the paper's HADES
future-work item, implemented.

Section III-A: "In future work, this could even be extended to power
consumption, given that the relevant data sets are available."  This
module provides that extension with a first-order 40 nm-class CMOS
model (the "data set" reduced to three documented coefficients):

* dynamic power  ~ switched capacitance x activity x frequency
  (area in kGE is the capacitance proxy),
* leakage power  ~ area,
* energy per operation = total power x latency.

Activity factors differ by micro-architecture — a byte-serial datapath
keeps its few gates toggling every cycle while a deeply pipelined
unrolled design has large idle structures — which is exactly why an
energy optimum can differ from both the area and the ALP optimum (see
``benchmarks/bench_power_extension.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import Metrics
from .template import Configuration

# 40 nm-class coefficients (per kGE).
DYNAMIC_UW_PER_KGE_MHZ = 0.055   # uW per kGE per MHz at activity 1.0
LEAKAGE_UW_PER_KGE = 1.8         # static leakage per kGE


@dataclass(frozen=True)
class PowerEstimate:
    """Predicted power/energy of one design point."""

    dynamic_mw: float
    leakage_mw: float
    energy_per_op_nj: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw


class HardwarePowerModel:
    """Maps (metrics, activity factor) to power and per-op energy at a
    100 MHz clock."""

    clock_mhz = 100.0

    def estimate(self, metrics: Metrics,
                 activity_factor: float) -> PowerEstimate:
        if not 0.0 <= activity_factor <= 1.0:
            raise ValueError("activity factor must be in [0, 1]")
        dynamic = (DYNAMIC_UW_PER_KGE_MHZ * metrics.area_kge
                   * activity_factor * self.clock_mhz) / 1000.0
        leakage = LEAKAGE_UW_PER_KGE * metrics.area_kge / 1000.0
        seconds_per_op = metrics.latency_cc / (self.clock_mhz * 1e6)
        energy_nj = (dynamic + leakage) * 1e-3 * seconds_per_op * 1e9
        return PowerEstimate(dynamic_mw=dynamic, leakage_mw=leakage,
                             energy_per_op_nj=energy_nj)


def aes_activity_factor(configuration: Configuration) -> float:
    """Per-micro-architecture switching activity of the AES template.

    Serial designs keep a tiny datapath busy every cycle; wide
    pipelined designs amortise control but leave round hardware idle
    between uses (round-based) or half-toggling (unrolled pipeline).
    """
    datapath = configuration.param("datapath")
    unroll = configuration.param("round_unroll")
    if datapath == 8:
        return 0.42
    if datapath == 32:
        return 0.30
    if unroll > 1:
        return 0.15          # fully pipelined: shallow toggling per stage
    return 0.22              # 128-bit round-based


def rank_by_energy(designs, activity_fn) -> list:
    """Sort evaluated designs by predicted energy per operation.

    ``designs`` is an iterable of
    :class:`~repro.hades.template.EvaluatedDesign`; ``activity_fn``
    maps a configuration to its activity factor.  Returns a list of
    ``(design, PowerEstimate)`` pairs, best (lowest energy) first.
    """
    model = HardwarePowerModel()

    ranked = [(design, model.estimate(design.metrics,
                                      activity_fn(design.configuration)))
              for design in designs]
    ranked.sort(key=lambda pair: pair[1].energy_per_op_nj)
    return ranked
