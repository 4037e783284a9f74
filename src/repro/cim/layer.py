"""Full NN-layer extraction: scaling the attack from one macro row to a
complete weight matrix.

The paper frames the threat as model IP theft ("trained models
represent valuable intellectual property that can be compromised
through power side-channel attacks").  A real accelerator maps a
fully-connected layer onto many CIM rows — one per output neuron —
evaluated sequentially or in banks, each observable on the power rail.
This module models such a layer and extracts the *entire* weight
matrix with the paper's two-phase attack, then checks functional
equivalence: the stolen matrix must produce identical MAC outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import WeightExtractionAttack
from .macro import DigitalCimMacro, WEIGHT_MAX
from .power import PowerModel


class CimLayer:
    """A fully-connected layer on CIM hardware: one macro row per
    output neuron, all sharing the input activations."""

    def __init__(self, weight_matrix):
        matrix = [list(row) for row in weight_matrix]
        if not matrix or not matrix[0]:
            raise ValueError("weight matrix must be non-empty")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ValueError("ragged weight matrix")
        for row in matrix:
            for w in row:
                if not 0 <= w <= WEIGHT_MAX:
                    raise ValueError(f"weight {w} outside 4-bit range")
        self.weight_matrix = matrix
        self.rows = [DigitalCimMacro(row) for row in matrix]

    @property
    def shape(self) -> tuple:
        return (len(self.weight_matrix), len(self.weight_matrix[0]))

    def infer(self, activations: list) -> list:
        """One forward pass: the MAC output of every neuron."""
        outputs = []
        for row in self.rows:
            value, _ = row.operate(activations)
            outputs.append(value)
        return outputs


@dataclass
class LayerExtractionResult:
    """Outcome of extracting a full layer."""

    recovered_matrix: list
    per_row_queries: list
    unresolved_rows: list = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return sum(self.per_row_queries)

    def accuracy(self, true_matrix) -> float:
        total = 0
        correct = 0
        for recovered_row, true_row in zip(self.recovered_matrix,
                                           true_matrix):
            for recovered, true in zip(recovered_row, true_row):
                total += 1
                correct += int(recovered == true)
        return correct / total

    def functionally_equivalent(self, layer: CimLayer) -> bool:
        """Does the stolen matrix reproduce the victim's outputs on 16
        random activation vectors?"""
        if any(w is None for row in self.recovered_matrix
               for w in row):
            return False
        stolen = CimLayer(self.recovered_matrix)
        rng = np.random.default_rng(0)
        _, width = layer.shape
        for _ in range(16):
            activations = [int(b) for b in rng.integers(0, 2, width)]
            if stolen.infer(activations) != layer.infer(activations):
                return False
        return True


class LayerExtractionAttack:
    """Drive the two-phase attack against every row of a layer.

    Rows are evaluated one at a time (the attacker gates the rows via
    the row-enable inputs, or simply observes the sequential row
    schedule), so each row is an independent instance of the
    single-macro attack.
    """

    def __init__(self, layer: CimLayer, power: PowerModel = None):
        self.layer = layer
        self.power = power or PowerModel()

    def run(self) -> LayerExtractionResult:
        recovered = []
        queries = []
        unresolved_rows = []
        for row_index, row in enumerate(self.layer.rows):
            result = WeightExtractionAttack(row, self.power, 1).run()
            recovered.append(result.recovered)
            queries.append(result.queries_used)
            if result.unresolved:
                unresolved_rows.append(row_index)
        return LayerExtractionResult(recovered_matrix=recovered,
                                     per_row_queries=queries,
                                     unresolved_rows=unresolved_rows)
