"""Table I — runtime of exhaustive DSE per algorithm.

Paper (TSMC-flow workstation):

    Keccak        14          0.5 s
    AdderModQ     42          0.7 s
    SparsePolyMul 372         1.2 s
    ChaCha20      1080        3.2 s
    AES           1440        5.4 s
    PolyMul       1302        7.9 s
    Kyber-CPA     40362       196.5 s
    Kyber-CCA     1148364     36 h

Our explorer evaluates analytic cost models instead of invoking a
synthesis-backed predictor, so the absolute times are orders of
magnitude smaller; the *shape* — configuration counts exact, runtime
growing with space size, Kyber-CCA dominating everything — is the
reproduction target.
"""

import itertools
import operator
import statistics

import pytest

from repro.hades import DesignContext, ExhaustiveExplorer, \
    OptimizationGoal
from repro.hades import explorer as explorer_module
from repro.hades import template as template_module
from repro.hades.library import TABLE_I_ROWS
from repro.obs import PERF, TELEMETRY
from repro.runtime import available_cpus

from conftest import median_ratio, paired_rounds, write_table

PAPER_SECONDS = {
    "Keccak": 0.5, "AdderModQ": 0.7,
    "Sparse Polynomial Multiplication": 1.2, "ChaCha20": 3.2,
    "AES": 5.4, "Polynomial Multiplication": 7.9,
    "Kyber-CPA": 196.5, "Kyber-CCA": 36 * 3600.0,
}

#: Fixed worker count for the parallel timing (not CPU-derived, so the
#: architectural counters recorded into bench history are identical on
#: every machine); the speedup floor only applies where the hardware
#: can actually deliver it.  It is timed on Kyber-CCA's all-goals fold
#: at masking order 1 (about 0.3 s serial), the median of
#: ``PARALLEL_ROUNDS`` interleaved rounds: the AREA fold alone takes
#: about 30 ms, near one worker's fixed cost (``MIN_CONFIGS_PER_JOB``).
PARALLEL_JOBS = 4
SPEEDUP_FLOOR = 1.5
PARALLEL_ROUNDS = 3

#: The Kyber-CCA AREA fold (the ``dse-exhaustive`` bench op) over lazy
#: lane columns against the same fold over the frozen eager column
#: below: the median of ``LAZY_ROUNDS`` interleaved rounds' paired
#: eager/lazy ratios, telemetry and PERF off.  A same-process ratio,
#: so asserted on every machine.  Six runs read 2.29-2.88x on a 2-vCPU
#: x86-64 KVM guest, and four runs of the lazy column forced at
#: construction read 0.97-1.09x there.
LAZY_FLOOR = 1.6
LAZY_ROUNDS = 5

#: The same Kyber-CCA AREA fold, pruned by lane-column floors, against
#: the frozen unpruned goal reduction below over the same lazy
#: columns: the median of ``PRUNE_ROUNDS`` interleaved rounds' paired
#: unpruned/pruned ratios, telemetry and PERF off.  A same-process
#: ratio, so asserted on every machine.  Nine runs read 7.05-10.78x on
#: a 2-vCPU x86-64 KVM guest; five runs of a floor that is always
#: ``-inf`` (a fold that never prunes) read 0.90-1.11x there.
PRUNE_FLOOR = 4.0
PRUNE_ROUNDS = 5

#: Every Table I row is timed the same way: a cold AREA fold at d=1 on
#: a fresh template (its sub-design tables empty), the median of
#: ``TABLE_ROUNDS`` rounds.
TABLE_ROUNDS = 3

_measured = {}
_serial_results = {}


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

SMALL_ROWS = [row for row in TABLE_I_ROWS if row[2] <= 50_000]
LARGE_ROWS = [row for row in TABLE_I_ROWS if row[2] > 50_000]


def _time_row(benchmark, name, factory, expected):
    """Record one Table I row (``TABLE_ROUNDS``) and return its last
    fold's result."""
    assert factory().count_configurations() == expected
    elapsed = []

    def run():
        result = ExhaustiveExplorer(factory(), DesignContext(
            masking_order=1)).run(OptimizationGoal.AREA)
        elapsed.append(result.elapsed_seconds)
        return result

    result = benchmark.pedantic(run, rounds=TABLE_ROUNDS, iterations=1)
    while len(elapsed) < TABLE_ROUNDS:     # benchmarks disabled: 1 round
        result = run()
    assert result.explored == expected
    _measured[name] = (expected, statistics.median(elapsed))
    return result


@pytest.mark.parametrize("name,factory,expected",
                         SMALL_ROWS, ids=[r[0] for r in SMALL_ROWS])
def test_exhaustive_dse_runtime(benchmark, name, factory, expected):
    _time_row(benchmark, name, factory, expected)


@pytest.mark.parametrize("name,factory,expected",
                         LARGE_ROWS, ids=[r[0] for r in LARGE_ROWS])
def test_exhaustive_dse_runtime_large(benchmark, name, factory,
                                      expected):
    """The 1.1M-point Kyber-CCA space."""
    _serial_results[name] = _time_row(benchmark, name, factory, expected)


def _goal_outcomes(results: dict) -> list:
    return [(goal, _outcome(result)) for goal, result in results.items()]


def test_exhaustive_dse_parallel_speedup(benchmark, report_dir):
    """The sharded Kyber-CCA fold: identical optima, wall-time speedup
    recorded into the bench artifacts / history.

    This is the paper's pain point made fast: the 1 148 364-point
    space the paper burns 36 h on exhaustively is exactly the loop
    ``jobs=N`` shards.  The AREA fold's identity is asserted at
    ``PARALLEL_JOBS`` workers; the speedup is timed on the all-goals
    fold, serial against two and ``PARALLEL_JOBS`` workers, and its
    floor is only asserted where the hardware can deliver it
    (>= PARALLEL_JOBS CPUs, i.e. CI).  Result identity is asserted
    everywhere.  Every fold runs on a fresh template, so every worker
    fills its sub-design tables cold, as part of its fixed cost.
    """
    name, factory, expected = LARGE_ROWS[0]
    serial = _serial_results[name]

    def explorer():
        return ExhaustiveExplorer(factory(), DesignContext(masking_order=1))

    def run():
        return explorer().run(OptimizationGoal.AREA, jobs=PARALLEL_JOBS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.explored == expected
    assert result.jobs == PARALLEL_JOBS
    assert _outcome(result) == _outcome(serial)

    outputs = {}

    def arm(jobs):
        def all_goals():
            outputs[jobs] = explorer().run_all_goals(jobs=jobs)
        return all_goals

    job_counts = (1, 2, PARALLEL_JOBS)
    walls = paired_rounds({jobs: arm(jobs) for jobs in job_counts},
                          PARALLEL_ROUNDS)
    for jobs in job_counts:
        assert _goal_outcomes(outputs[jobs]) == _goal_outcomes(outputs[1])
    speedups = {jobs: median_ratio(walls[1], walls[jobs])
                for jobs in job_counts}
    write_table(
        report_dir, "table1_parallel",
        f"Table I parallel: {name} ({expected} configurations), all "
        f"goals at d=1, sharded by whole chunks ({available_cpus()} "
        f"CPUs available; {PARALLEL_ROUNDS} interleaved rounds, "
        f"speedup = median of the rounds' serial/sharded ratios)",
        ["mode", "jobs", "median wall", "evals/s", "speedup"],
        [["serial" if jobs == 1 else "sharded", jobs,
          f"{statistics.median(walls[jobs]):.3f} s",
          f"{expected / statistics.median(walls[jobs]):,.0f}",
          f"{speedups[jobs]:.2f}x"] for jobs in job_counts])
    if available_cpus() >= PARALLEL_JOBS:
        speedup = speedups[PARALLEL_JOBS]
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name} sharded {PARALLEL_JOBS} ways on "
            f"{available_cpus()} CPUs sped up only {speedup:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x)")


def test_report_table1(benchmark, report_dir):
    """Aggregate the measurements into the reproduced Table I."""
    assert len(_measured) == len(TABLE_I_ROWS)

    def build():
        rows = []
        ordered = sorted(_measured.items(), key=lambda kv: kv[1][0])
        for name, (count, seconds) in ordered:
            rows.append([name, count, f"{seconds:.4f} s",
                         f"{PAPER_SECONDS[name]:.1f} s"])
        write_table(report_dir, "table1",
                    "Table I: exhaustive DSE runtime "
                    "(measured vs paper)",
                    ["algorithm", "#configurations", "measured",
                     "paper"], rows)
        return ordered

    ordered = benchmark.pedantic(build, rounds=1, iterations=1)
    # Shape check: runtime must grow with configuration count across
    # the extremes, and Kyber-CCA must dominate.
    times = [seconds for _, (_, seconds) in ordered]
    counts = [count for _, (count, _) in ordered]
    assert counts == sorted(counts)
    assert times[-1] == max(times)
    assert times[-1] > 10 * times[0]


def _outcome(result) -> tuple:
    """What a fold decides, each metric with its type."""
    metrics = result.best.metrics
    return (result.explored, result.feasible, result.best.configuration,
            [(value, type(value)) for value in (
                metrics.area_kge, metrics.latency_cc,
                metrics.randomness_bits)])


def _fold_gate(report_dir, artifact, title, header, arms, rounds,
               floor):
    """The Kyber-CCA AREA fold at d=1 through each of two ``arms``
    (``{label: wrapper}``, the reference first; a wrapper calls the
    fold it is given), in one process over ``rounds`` interleaved
    rounds (:func:`~conftest.paired_rounds`), telemetry and PERF off,
    each fold cold on a fresh template: the same outcome, and the
    median of the rounds' reference/other ratios reaches ``floor``."""
    name, factory, expected = LARGE_ROWS[0]
    outputs = {}

    def arm(label, wrapper):
        def run():
            explorer = ExhaustiveExplorer(factory(),
                                          DesignContext(masking_order=1))
            outputs[label] = wrapper(
                lambda: explorer.run(OptimizationGoal.AREA, jobs=1))
        return run

    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        walls = paired_rounds({label: arm(label, wrapper)
                               for label, wrapper in arms.items()}, rounds)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    reference, other = arms
    assert _outcome(outputs[other]) == _outcome(outputs[reference])

    ratio = median_ratio(walls[reference], walls[other])
    median = {label: statistics.median(walls[label]) for label in arms}
    write_table(
        report_dir, artifact,
        f"Table I: {name} ({expected} configurations) area fold, d=1, "
        f"{title} ({rounds} interleaved rounds, speedup = median of the "
        f"rounds' {reference}/{other} ratios; identical outcome)",
        [header, "median wall", "designs/s", "speedup", "floor"],
        [[f"{reference} reference", f"{median[reference] * 1e3:.1f} ms",
          f"{expected / median[reference]:,.0f}", "1.00x", "-"],
         [other, f"{median[other] * 1e3:.1f} ms",
          f"{expected / median[other]:,.0f}", f"{ratio:.2f}x",
          f">= {floor:.1f}x"]])
    assert ratio >= floor, (walls, ratio)


def test_lazy_columns_beat_eager_reference(benchmark, report_dir):
    """The Kyber-CCA AREA fold over lazy lane columns against the same
    fold over the frozen eager column, both folded by the frozen
    unpruned reduction (:func:`_fold_gate`, ``LAZY_FLOOR``)."""
    _fold_gate(report_dir, "table1_lazy",
               "unpruned, lazy vs frozen eager lane columns", "columns",
               {"eager": eager, "lazy": unpruned}, LAZY_ROUNDS, LAZY_FLOOR)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_pruned_fold_beats_unpruned_reference(benchmark, report_dir):
    """The Kyber-CCA AREA fold pruned by lane-column floors against the
    same fold by the frozen unpruned reduction, over the same lazy
    columns (:func:`_fold_gate`, ``PRUNE_FLOOR``)."""
    _fold_gate(report_dir, "table1_pruned",
               "lazy columns, pruned by floors vs the frozen unpruned "
               "reduction", "fold",
               {"unpruned": unpruned, "pruned": lambda run: run()},
               PRUNE_ROUNDS, PRUNE_FLOOR)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
