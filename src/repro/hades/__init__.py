"""HADES: automated hardware design-space exploration for cryptographic
primitives (paper Section III-A; Buschkowski et al., ePrint 2024/130).

The tool "systematically traverses thousands (and even millions) of
different designs and ranks them based on the specified optimization
target" — here rebuilt as:

* :mod:`~repro.hades.template` — nested generic templates,
* :mod:`~repro.hades.metrics` — metrics and optimization goals,
* :mod:`~repro.hades.masking` — arbitrary-order masking cost models,
* :mod:`~repro.hades.explorer` — exhaustive and local-search DSE,
* :mod:`~repro.hades.library` — the Table I case studies,
* :mod:`~repro.hades.agema` — the AGEMA post-hoc masking baseline.

Quick use (a runnable doctest — ``tests/test_imports.py`` executes it):

    >>> from repro.hades import (DesignContext, ExhaustiveExplorer,
    ...                          OptimizationGoal)
    >>> from repro.hades.library import aes256
    >>> explorer = ExhaustiveExplorer(aes256(),
    ...                               DesignContext(masking_order=1))
    >>> result = explorer.run(OptimizationGoal.AREA)
    >>> result.explored                    # the Table I AES row
    1440
    >>> result.best.metrics.area_kge < result.best.metrics.latency_cc
    True
    >>> isinstance(result.best.configuration.describe(), str)
    True
"""

from .metrics import Metrics, OptimizationGoal
from .template import (Configuration, DesignContext, DesignIndex,
                       EvaluatedDesign, InfeasibleConfiguration, Template,
                       enumerate_designs)
from .explorer import (ExhaustiveExplorer, ExplorationResult,
                       LocalSearchExplorer, neighbours, pareto_front)
from .agema import AgemaResult, agema_adder, agema_mask_netlist
from .power import (HardwarePowerModel, PowerEstimate,
                    aes_activity_factor, rank_by_energy)

__all__ = [
    "HardwarePowerModel", "PowerEstimate", "aes_activity_factor",
    "rank_by_energy",
    "Metrics", "OptimizationGoal",
    "Configuration", "DesignContext", "DesignIndex", "EvaluatedDesign",
    "InfeasibleConfiguration", "Template", "enumerate_designs",
    "ExhaustiveExplorer", "ExplorationResult", "LocalSearchExplorer",
    "neighbours", "pareto_front",
    "AgemaResult", "agema_adder", "agema_mask_netlist",
]
