"""Frozen reference folds the HADES exhaustive explorer is pinned to.

Each class here is a production part of the exhaustive fold as it was
before an optimisation: the parity suites prove the optimised fold
decides exactly what these decide, and the Table I bench times the
production fold against them in the same process.  Production code
never imports this module (``tests/test_imports.py`` enforces that);
tests import it as ``hades_reference``, and ``benchmarks/conftest.py``
puts ``tests/`` on the path for the benches.

* the eager lane column (production: lazy ``repro.hades.template._Column``),
  swapped in by :func:`eager`;
* the unpruned goal reduction (production: ``repro.hades.explorer.
  _GoalReduction``, pruned by lane-column floors), swapped in by
  :func:`unpruned`;
* :func:`fold_outcome`, what a fold decides, the value both sides of
  every comparison are reduced to.
"""

import itertools
import operator

from repro.hades import explorer as explorer_module
from repro.hades import template as template_module


def fold_outcome(result) -> tuple:
    """What a fold decides, each metric with its type."""
    metrics = result.best.metrics
    return (result.explored, result.feasible, result.best.configuration,
            [(value, type(value)) for value in (
                metrics.area_kge, metrics.latency_cc,
                metrics.randomness_bits)])


# -- frozen reference: the eager lane column ------------------------------

def _eager_nonneg(value) -> bool:
    """True when no lane of ``value`` (a column or a scalar) is below 0."""
    return value.nonneg if type(value) is _EagerColumn else not value < 0


class _EagerColumn:
    """The exhaustive fold's lane column before lazy evaluation: every
    ``+``, ``*`` and ``/`` computes its lanes at once, and ``x < 0`` on
    a non-negative column builds a lane list of ``False``."""

    __slots__ = ("lanes", "nonneg")

    def __init__(self, lanes: list, nonneg: bool = False):
        self.lanes = lanes
        self.nonneg = nonneg

    def __add__(self, other):
        nonneg = self.nonneg and _eager_nonneg(other)
        if type(other) is _EagerColumn:
            return _EagerColumn(list(map(operator.add, self.lanes,
                                         other.lanes)), nonneg)
        return _EagerColumn([x + other for x in self.lanes], nonneg)

    def __radd__(self, other):
        return _EagerColumn([other + x for x in self.lanes],
                            self.nonneg and not other < 0)

    def __mul__(self, other):
        nonneg = self.nonneg and _eager_nonneg(other)
        if type(other) is _EagerColumn:
            return _EagerColumn(list(map(operator.mul, self.lanes,
                                         other.lanes)), nonneg)
        return _EagerColumn([x * other for x in self.lanes], nonneg)

    def __rmul__(self, other):
        return _EagerColumn([other * x for x in self.lanes],
                            self.nonneg and not other < 0)

    def __truediv__(self, other):
        nonneg = self.nonneg and _eager_nonneg(other)
        if type(other) is _EagerColumn:
            return _EagerColumn(list(map(operator.truediv, self.lanes,
                                         other.lanes)), nonneg)
        return _EagerColumn([x / other for x in self.lanes], nonneg)

    def __lt__(self, other):
        if type(other) is not _EagerColumn and self.nonneg and other <= 0:
            return _EagerColumn([False] * len(self.lanes))
        others = other.lanes if type(other) is _EagerColumn \
            else itertools.repeat(other)
        return _EagerColumn(list(map(operator.lt, self.lanes, others)))

    __hash__ = None

    def __bool__(self):
        if all(self.lanes):
            return True
        if not any(self.lanes):
            return False
        raise TypeError(
            "lanes disagree on a branch: a cost model must not branch "
            "on a sub-template metric")


#: The frozen eager fold's lane column, which :func:`eager` swaps in
#: for ``repro.hades.template._Column``.
EAGER = _EagerColumn


# -- frozen reference: the unpruned goal reduction ------------------------

class _UnprunedReduction:
    """The exhaustive fold's goal reduction before lower-bound pruning:
    it computes every chunk's score lanes and takes their minimum
    before it can tell that the chunk loses, and it ranks every lane
    of a chunk whose scores all tie with the best."""

    __slots__ = ("goal", "best_key", "best")

    def __init__(self, goal):
        self.goal = goal
        self.best_key = None
        self.best = None

    @staticmethod
    def _rank_key(chunk, scores, lane):
        metrics = chunk.metrics
        area = metrics.area_kge.lanes[lane]
        return (scores[lane], area * metrics.latency_cc.lanes[lane], area,
                chunk.rank(lane))

    def fold(self, chunk):
        scores = self.goal.score(chunk.metrics).lanes
        low = min(scores)
        if self.best_key is not None and low > self.best_key[0]:
            return
        key, lane = min((self._rank_key(chunk, scores, lane), lane)
                        for lane, score in enumerate(scores)
                        if score == low)
        if self.best_key is None or key < self.best_key:
            self.best_key, self.best = key, chunk.design(lane)

    def dump(self):
        return self.best_key, self.best


#: The frozen unpruned goal reduction, which :func:`unpruned` swaps in
#: for ``repro.hades.explorer._GoalReduction``.
UNPRUNED = _UnprunedReduction


def unpruned(run):
    """``run()`` with the frozen unpruned goal reduction, over the
    production lane columns (forked workers inherit the swap)."""
    saved = explorer_module._GoalReduction
    explorer_module._GoalReduction = UNPRUNED
    try:
        return run()
    finally:
        explorer_module._GoalReduction = saved


def eager(run):
    """``run()`` over the frozen eager lane column, folded by the frozen
    unpruned reduction it was measured with (the eager column has no
    ``floor``)."""
    saved, template_module._Column = template_module._Column, EAGER
    try:
        return unpruned(run)
    finally:
        template_module._Column = saved
