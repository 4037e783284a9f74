"""The two-phase CIM weight-extraction attack (paper Section III-C).

Phase 1 ("clustering", Fig. 1): every weight is activated alone; the
macro's switching activity is proportional to the weight's Hamming
weight, so k-means over the per-weight mean powers yields five clusters
that map onto HW 0..4 by ascending power.

Phase 2 ("combination", Fig. 2): weights whose HW pins their value
(HW 0 -> 0, HW 4 -> 15) become *known*.  An unknown weight is activated
together with known companions; the measured activity is matched
against the attacker's power predictions for every candidate value of
the unknown's HW class, shrinking the candidate set until one value
remains.  Newly recovered weights immediately serve as companions for
the rest — the paper's "iterative process, optimized through
exhaustive search".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..obs import TELEMETRY
from .adder_tree import hamming_weight
from .kmeans import KMeans
from .macro import (DigitalCimMacro, WEIGHT_MAX, one_hot, subset_mask)
from .power import PowerModel, STATIC_POWER, ENERGY_PER_TOGGLE

#: Known weights a phase-2 companion search draws from.
COMPANION_POOL = 8


def values_with_hamming_weight(hw: int) -> list:
    """All 4-bit values of a given Hamming weight."""
    return [v for v in range(WEIGHT_MAX + 1) if hamming_weight(v) == hw]


@dataclass
class Phase1Result:
    """Outcome of the clustering phase (the data behind Fig. 1)."""

    mean_powers: list                 # per-weight mean measured power
    cluster_labels: list              # raw k-means labels
    hw_estimates: list                # clusters ordered by power -> HW
    traces_used: int

    def accuracy(self, true_weights: list) -> float:
        correct = sum(1 for est, w in zip(self.hw_estimates, true_weights)
                      if est == hamming_weight(w))
        return correct / len(true_weights)


@dataclass
class AttackResult:
    """Outcome of the full two-phase attack."""

    recovered: list                   # estimated weight values (or None)
    phase1: Phase1Result
    queries_used: int
    unresolved: list = field(default_factory=list)

    def accuracy(self, true_weights: list) -> float:
        correct = sum(1 for est, w in zip(self.recovered, true_weights)
                      if est == w)
        return correct / len(true_weights)


class WeightExtractionAttack:
    """Attacker model: chooses binary input masks, observes power, and
    owns a simulatable clone of the macro design (the gate-level
    implementation is public; only the SRAM contents are secret)."""

    def __init__(self, macro: DigitalCimMacro, power: PowerModel = None,
                 repetitions: int = 5):
        self.macro = macro
        self.power = power or PowerModel()
        self.repetitions = repetitions
        self.queries_used = 0

    # -- measurement ------------------------------------------------------

    def _measure(self, mask: list) -> float:
        self.queries_used += 1
        return float(np.mean(self.power.trace(self.macro, mask,
                                              self.repetitions)))

    # -- prediction (the attacker's design clone) -------------------------

    @staticmethod
    def _predict_toggles(unknown_index: int, candidate: int,
                         companions: dict, length: int) -> int:
        """Exact switching activity the design clone predicts for a
        fresh query activating ``unknown_index`` plus companions."""
        weights = [0] * length
        weights[unknown_index] = candidate
        for index, value in companions.items():
            weights[index] = value
        clone = DigitalCimMacro(weights)
        mask = subset_mask(length, [unknown_index] + list(companions))
        return clone.query_fresh(mask)

    @staticmethod
    def _predicted_power(toggles: int) -> float:
        return STATIC_POWER + ENERGY_PER_TOGGLE * toggles

    # -- phase 1 -----------------------------------------------------------

    def phase1_cluster(self) -> Phase1Result:
        """Activate each weight alone, cluster mean powers into 5 HW
        classes (Fig. 1)."""
        with TELEMETRY.span("cim.phase1", weights=len(self.macro)):
            return self._phase1_cluster()

    def _phase1_cluster(self) -> Phase1Result:
        length = len(self.macro)
        means = []
        with TELEMETRY.span("cim.phase1.trace_generation",
                            repetitions=self.repetitions):
            for index in range(length):
                mask = one_hot(length, index)
                means.append(self._measure(mask))
        with TELEMETRY.span("cim.phase1.clustering"):
            n_clusters = min(5, len(set(np.round(means, 6))))
            km = KMeans(n_clusters=n_clusters).fit(means)
        # Order clusters by mean power: lowest power -> lowest HW.
        order = np.argsort(km.centers_[:, 0])
        # Map each cluster to an HW value using its nearest noise-free
        # power level (robust when some HW classes are absent).
        level_of_cluster = {}
        for rank, cluster in enumerate(order):
            center = km.centers_[cluster, 0]
            predicted_levels = [
                self._predicted_power(self._predict_toggles(0, value,
                                                            {}, length))
                for value in (0, 1, 3, 7, 15)]
            level_of_cluster[int(cluster)] = int(np.argmin(
                [abs(center - level) for level in predicted_levels]))
        hw_estimates = [level_of_cluster[int(label)]
                        for label in km.labels_]
        return Phase1Result(
            mean_powers=means, cluster_labels=list(map(int, km.labels_)),
            hw_estimates=hw_estimates,
            traces_used=length * self.repetitions)

    # -- phase 2 -----------------------------------------------------------

    def _companion_subsets(self, known: dict, max_size: int = 4):
        """Candidate companion sets, cheapest first (the exhaustive
        search that 'minimizes additions').

        The pool keeps one representative index per distinct known
        value (value diversity separates candidates fastest) topped up
        with extra copies of the largest value (stacked identical
        companions distinguish residue classes, e.g. {7, 11} need
        four 15s), capped at ``COMPANION_POOL`` to bound the search.
        """
        indices = sorted((i for i in known if known[i] != 0),
                         key=lambda i: -known[i])
        pool = []
        seen_values = set()
        for index in indices:
            if known[index] not in seen_values:
                pool.append(index)
                seen_values.add(known[index])
        for index in indices:
            if len(pool) >= COMPANION_POOL:
                break
            if index not in pool:
                pool.append(index)
        for size in range(1, max_size + 1):
            for subset in itertools.combinations(pool, size):
                yield subset

    def _resolve_unknown(self, index: int, candidates: list,
                         known: dict, tolerance: float) -> int:
        """Shrink ``candidates`` for one unknown weight via combined
        activations; returns the value or None if unresolved."""
        length = len(self.macro)
        remaining = list(candidates)
        for subset in self._companion_subsets(known):
            if len(remaining) <= 1:
                break
            companions = {i: known[i] for i in subset}
            predictions = {
                value: self._predicted_power(self._predict_toggles(
                    index, value, companions, length))
                for value in remaining}
            if len(set(predictions.values())) == 1:
                continue               # this subset cannot discriminate
            measured = self._measure(
                subset_mask(length, [index] + list(subset)))
            best_gap = min(abs(p - measured)
                           for p in predictions.values())
            remaining = [value for value, p in predictions.items()
                         if abs(p - measured) <= best_gap + tolerance]
        return remaining[0] if len(remaining) == 1 else None

    def _predict_pair_toggles(self, index_a: int, candidate_a: int,
                              index_b: int, candidate_b: int,
                              companions: dict, length: int) -> int:
        weights = [0] * length
        weights[index_a] = candidate_a
        weights[index_b] = candidate_b
        for index, value in companions.items():
            weights[index] = value
        clone = DigitalCimMacro(weights)
        mask = subset_mask(length,
                           [index_a, index_b] + list(companions))
        return clone.query_fresh(mask)

    def _resolve_pair(self, index_a: int, candidates_a: list,
                      index_b: int, candidates_b: list, known: dict,
                      tolerance: float) -> tuple:
        """Joint resolution: activate two unknowns together (optionally
        with known companions) and filter the *pair* candidate set.

        Needed when single-unknown queries cannot separate values whose
        sums with every known companion tie in Hamming weight (e.g.
        {7, 11} with only a 15 available) — the joint sum breaks the
        tie.  Returns the possibly-narrowed candidate lists.
        """
        length = len(self.macro)
        pairs = [(va, vb) for va in candidates_a for vb in candidates_b]
        subsets = [()] + [s for s in self._companion_subsets(
            known, max_size=2)]
        for subset in subsets:
            if len(pairs) <= 1:
                break
            companions = {i: known[i] for i in subset}
            predictions = {
                pair: self._predicted_power(self._predict_pair_toggles(
                    index_a, pair[0], index_b, pair[1], companions,
                    length))
                for pair in pairs}
            if len(set(predictions.values())) == 1:
                continue
            measured = self._measure(subset_mask(
                length, [index_a, index_b] + list(subset)))
            best_gap = min(abs(p - measured)
                           for p in predictions.values())
            pairs = [pair for pair, p in predictions.items()
                     if abs(p - measured) <= best_gap + tolerance]
        remaining_a = sorted({pair[0] for pair in pairs})
        remaining_b = sorted({pair[1] for pair in pairs})
        return remaining_a, remaining_b

    def run(self, tolerance: float = 1e-6) -> AttackResult:
        """The full two-phase extraction."""
        with TELEMETRY.span("cim.attack.run",
                            weights=len(self.macro)) as span:
            result = self._run(tolerance)
            if TELEMETRY.enabled:
                span.set_attr("queries_used", self.queries_used)
                span.set_attr("unresolved", len(result.unresolved))
            return result

    def _run(self, tolerance: float) -> AttackResult:
        phase1 = self.phase1_cluster()
        length = len(self.macro)
        recovered = [None] * length
        known = {}
        for index, hw in enumerate(phase1.hw_estimates):
            values = values_with_hamming_weight(hw)
            if len(values) == 1:       # HW 0 and HW 4 pin the value
                recovered[index] = values[0]
                known[index] = values[0]
        with TELEMETRY.span("cim.phase2.combination"):
            unresolved = self._phase2_rounds(phase1, recovered, known,
                                             tolerance)
        return AttackResult(recovered=recovered, phase1=phase1,
                            queries_used=self.queries_used,
                            unresolved=unresolved)

    def _phase2_rounds(self, phase1: Phase1Result, recovered: list,
                       known: dict, tolerance: float) -> list:
        """The combination rounds; mutates ``recovered``/``known`` and
        returns the indices left unresolved."""
        length = len(self.macro)
        # Resolve easy classes first so their weights serve as
        # companions for the harder ones, and keep retrying the rest in
        # rounds: every recovered weight enlarges the companion pool
        # (the paper's "iterative process").
        pending = sorted((index for index in range(length)
                          if recovered[index] is None),
                         key=lambda i: (len(values_with_hamming_weight(
                             phase1.hw_estimates[i])),
                             phase1.hw_estimates[i]))
        while pending:
            progressed = False
            still_pending = []
            for index in pending:
                candidates = values_with_hamming_weight(
                    phase1.hw_estimates[index])
                value = self._resolve_unknown(index, candidates, known,
                                              tolerance)
                if value is None:
                    still_pending.append(index)
                else:
                    recovered[index] = value
                    known[index] = value
                    progressed = True
            pending = still_pending
            if not progressed:
                break
        # Joint pass: pairs of unknowns activated together break ties
        # that no single-unknown query can (the paper's exhaustive
        # combination search in full generality).
        progressed = True
        while progressed and len(pending) >= 2:
            progressed = False
            for position in range(len(pending) - 1):
                index_a = pending[position]
                index_b = pending[position + 1]
                candidates_a = values_with_hamming_weight(
                    phase1.hw_estimates[index_a])
                candidates_b = values_with_hamming_weight(
                    phase1.hw_estimates[index_b])
                remaining_a, remaining_b = self._resolve_pair(
                    index_a, candidates_a, index_b, candidates_b,
                    known, tolerance)
                changed = False
                for index, remaining in ((index_a, remaining_a),
                                         (index_b, remaining_b)):
                    if len(remaining) == 1 and recovered[index] is None:
                        recovered[index] = remaining[0]
                        known[index] = remaining[0]
                        changed = True
                if changed:
                    progressed = True
                    # Retry stragglers with the enlarged companion pool.
                    retry = [i for i in pending
                             if recovered[i] is None]
                    for index in list(retry):
                        value = self._resolve_unknown(
                            index, values_with_hamming_weight(
                                phase1.hw_estimates[index]),
                            known, tolerance)
                        if value is not None:
                            recovered[index] = value
                            known[index] = value
                    pending = [i for i in pending
                               if recovered[i] is None]
                    break
        return pending


def phase2_power_patterns(values: list, companion_value: int) -> dict:
    """The data behind Fig. 2: predicted power of activating each
    candidate value with and without a known companion weight.

    Returns ``{value: (power_alone, power_with_companion)}``.
    """
    patterns, length = {}, 16
    for value in values:
        weights = [0] * length
        weights[0] = value
        weights[1] = companion_value
        clone = DigitalCimMacro(weights)
        alone = clone.query_fresh(one_hot(length, 0))
        combined = clone.query_fresh(subset_mask(length, [0, 1]))
        patterns[value] = (STATIC_POWER + ENERGY_PER_TOGGLE * alone,
                           STATIC_POWER + ENERGY_PER_TOGGLE * combined)
    return patterns
