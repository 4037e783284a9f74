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
#: can actually deliver it.
PARALLEL_JOBS = 4
SPEEDUP_FLOOR = 1.5

#: The Kyber-CCA AREA fold (the ``dse-exhaustive`` bench op) over lazy
#: lane columns against the same fold over the frozen eager column
#: below: the median of ``LAZY_ROUNDS`` interleaved rounds' paired
#: eager/lazy ratios, telemetry and PERF off.  A same-process ratio,
#: so asserted on every machine.  Six runs read 2.29-2.88x on a 2-vCPU
#: x86-64 KVM guest, and four runs of the lazy column forced at
#: construction read 0.97-1.09x there.
LAZY_FLOOR = 1.6
LAZY_ROUNDS = 5

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


def eager(run):
    """``run()`` over the frozen eager lane column."""
    saved, template_module._Column = template_module._Column, EAGER
    try:
        return run()
    finally:
        template_module._Column = saved

SMALL_ROWS = [row for row in TABLE_I_ROWS if row[2] <= 50_000]
LARGE_ROWS = [row for row in TABLE_I_ROWS if row[2] > 50_000]


@pytest.mark.parametrize("name,factory,expected",
                         SMALL_ROWS, ids=[r[0] for r in SMALL_ROWS])
def test_exhaustive_dse_runtime(benchmark, name, factory, expected):
    template = factory()
    assert template.count_configurations() == expected

    def run():
        return ExhaustiveExplorer(template, DesignContext(
            masking_order=1)).run(OptimizationGoal.AREA)

    result = benchmark(run)
    assert result.explored == expected
    _measured[name] = (expected, result.elapsed_seconds)


@pytest.mark.parametrize("name,factory,expected",
                         LARGE_ROWS, ids=[r[0] for r in LARGE_ROWS])
def test_exhaustive_dse_runtime_large(benchmark, name, factory,
                                      expected):
    """The 1.1M-point Kyber-CCA space: single-shot timing."""
    template = factory()
    assert template.count_configurations() == expected

    def run():
        return ExhaustiveExplorer(template, DesignContext(
            masking_order=1)).run(OptimizationGoal.AREA)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.explored == expected
    _measured[name] = (expected, result.elapsed_seconds)
    _serial_results[name] = result


def test_exhaustive_dse_parallel_speedup(benchmark, report_dir):
    """The sharded Kyber-CCA traversal: identical optimum, wall-time
    speedup recorded into the bench artifacts / history.

    This is the paper's pain point made fast: the 1 148 364-point
    space the paper burns 36 h on exhaustively is exactly the loop
    ``jobs=N`` shards.  The speedup floor is only asserted where the
    hardware can deliver it (>= PARALLEL_JOBS CPUs, i.e. CI); the
    byte-level result identity is asserted everywhere.
    """
    name, factory, expected = LARGE_ROWS[0]
    serial = _serial_results[name]
    template = factory()

    def run():
        return ExhaustiveExplorer(template, DesignContext(
            masking_order=1)).run(OptimizationGoal.AREA,
                                  jobs=PARALLEL_JOBS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.explored == expected
    assert result.jobs == PARALLEL_JOBS
    assert result.best.configuration == serial.best.configuration
    assert result.best.metrics == serial.best.metrics
    assert result.feasible == serial.feasible

    speedup = serial.elapsed_seconds / result.elapsed_seconds
    write_table(
        report_dir, "table1_parallel",
        f"Table I parallel: {name} ({expected} configurations) "
        f"sharded across {PARALLEL_JOBS} workers "
        f"({available_cpus()} CPUs available)",
        ["mode", "jobs", "wall", "evals/s", "speedup"],
        [["serial", 1, f"{serial.elapsed_seconds:.3f} s",
          f"{serial.feasible / serial.elapsed_seconds:,.0f}", "1.00x"],
         ["sharded", PARALLEL_JOBS,
          f"{result.elapsed_seconds:.3f} s",
          f"{result.feasible / result.elapsed_seconds:,.0f}",
          f"{speedup:.2f}x"]])
    if available_cpus() >= PARALLEL_JOBS:
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


def test_lazy_columns_beat_eager_reference(benchmark, report_dir):
    """The Kyber-CCA AREA fold over lazy lane columns against the same
    fold over the frozen eager column, in one process over
    ``LAZY_ROUNDS`` interleaved rounds
    (:func:`~conftest.paired_rounds`), telemetry and PERF off: the same
    outcome, and the median of the rounds' eager/lazy ratios reaches
    ``LAZY_FLOOR``."""
    name, factory, expected = LARGE_ROWS[0]
    template, goal = factory(), OptimizationGoal.AREA
    explorer = ExhaustiveExplorer(template, DesignContext(masking_order=1))
    outputs = {}

    def lazy_arm():
        outputs["lazy"] = explorer.run(goal, jobs=1)

    def eager_arm():
        outputs["eager"] = eager(lambda: explorer.run(goal, jobs=1))

    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        walls = paired_rounds({"eager": eager_arm, "lazy": lazy_arm},
                              LAZY_ROUNDS)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    assert _outcome(outputs["lazy"]) == _outcome(outputs["eager"])

    ratio = median_ratio(walls["eager"], walls["lazy"])
    median = {arm: statistics.median(walls[arm]) for arm in walls}
    write_table(
        report_dir, "table1_lazy",
        f"Table I: {name} ({expected} configurations) area fold, d=1, "
        f"lazy vs frozen eager lane columns ({LAZY_ROUNDS} interleaved "
        f"rounds, speedup = median of the rounds' eager/lazy ratios; "
        f"identical outcome)",
        ["columns", "median wall", "designs/s", "speedup", "floor"],
        [["eager reference", f"{median['eager'] * 1e3:.1f} ms",
          f"{expected / median['eager']:,.0f}", "1.00x", "-"],
         ["lazy", f"{median['lazy'] * 1e3:.1f} ms",
          f"{expected / median['lazy']:,.0f}", f"{ratio:.2f}x",
          f">= {LAZY_FLOOR:.1f}x"]])
    assert ratio >= LAZY_FLOOR, (walls, ratio)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
