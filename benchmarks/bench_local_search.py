"""X1 — the local-search heuristic claims (Section III-A).

Paper: "For a Chosen Ciphertext Attack (CCA)-secure implementation of
Kyber more than 1.1 million designs can be explored exhaustively in
36 h.  The heuristic strategy finds an optimized Kyber in less than
200 s. ... we obtain perfect results for Kyber-CCA for as few as 50
random performance base-lines."

Both claims are reproduced against our explorer: 50-start local search
matches the exhaustive optimum while evaluating a tiny fraction of the
space, and takes less time than the paper's naive mode, a full
traversal (the exhaustive fold with the frozen unpruned reduction of
``tests/hades_reference.py``); the 1- and 10-start variants show the
accuracy/effort trade-off.  The production exhaustive fold drops
chunks whose lower bound cannot beat its running best, which is exact
but no full traversal: on these smooth analytic cost models it is
faster than 50 starts, and the table reports both.

``results/local_search_index`` times the explorer against a frozen
copy of the spliced, once-hashed table descent, the last one to build
a configuration per neighbour, before local search walked the
integer-indexed design space, in the same process.  It is the one
speed gate of local search: a pricer without its sub-design table, or
a descent that builds and hashes a configuration per visited design,
fails it too.
"""

import functools
import random
import statistics
from dataclasses import dataclass, field

import pytest

from repro.hades import (Configuration, DesignContext, EvaluatedDesign,
                         ExhaustiveExplorer, InfeasibleConfiguration,
                         LocalSearchExplorer, OptimizationGoal)
from repro.hades.library import kyber_cca
from repro.obs import PERF, TELEMETRY
from repro.runtime import Memo

from conftest import median_ratio, paired_rounds, write_table
from hades_reference import unpruned

GOAL = OptimizationGoal.AREA
CONTEXT = DesignContext(masking_order=1)

#: 10-start Kyber-CCA searches (the ``dse-local`` bench op) through
#: :class:`LocalSearchExplorer` over the same searches through the
#: frozen spliced reference below (the table descent over once-hashed
#: configurations, each neighbour built by splicing one tuple entry):
#: the median of ``INDEX_ROUNDS`` interleaved rounds' paired ratios
#: over ``INDEX_SEEDS``, telemetry and PERF off.  A same-process ratio,
#: so asserted on every machine.  Ten runs read 2.64-3.75x on a 2-vCPU
#: x86-64 KVM guest.  Ten runs each of a pricer without its sub-design
#: table and of a descent that builds and hashes a
#: :class:`Configuration` per visited rank read 0.55-0.67x and
#: 0.53-0.65x there.
INDEX_FLOOR = 1.8
INDEX_ROUNDS = 7
INDEX_SEEDS = (1000, 1001, 1002)
INDEX_STARTS = 10

_results = {}


# -- frozen reference: the spliced descent before the design index ------

@dataclass(frozen=True)
class _HashOnceConfiguration:
    """``Configuration`` as the spliced descent used it: the hash of
    ``(template, params, slots)`` is taken once, at construction, so a
    parent's hash reads one cached value per child."""

    template: str
    params: tuple
    slots: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.template, self.params, self.slots)))

    def __hash__(self):
        return self._hash


def _position(pairs, name):
    for index, (key, _) in enumerate(pairs):
        if key == name:
            return index
    raise KeyError(name)


def _with_param(config, index, value):
    params = config.params
    return _HashOnceConfiguration(
        config.template,
        params[:index] + ((params[index][0], value),) + params[index + 1:],
        config.slots)


def _with_slot(config, index, sub):
    slots = config.slots
    return _HashOnceConfiguration(
        config.template, config.params,
        slots[:index] + ((slots[index][0], sub),) + slots[index + 1:])


@functools.cache
def _spliced_default(template):
    """The default design, built once per template."""
    return _HashOnceConfiguration(
        template.name,
        tuple(sorted((key, values[0])
                     for key, values in template.parameters.items())),
        tuple(sorted((key, _spliced_default(candidates[0]))
                     for key, candidates in template.slots.items())))


def _spliced_neighbours(template, config):
    """Every single-decision variation: each splices one entry into its
    parent's tuples and shares its untouched children."""
    for name, values in template.parameters.items():
        index = _position(config.params, name)
        current = config.params[index][1]
        for value in values:
            if value != current:
                yield _with_param(config, index, value)
    for slot_name, candidates in template.slots.items():
        index = _position(config.slots, slot_name)
        sub = config.slots[index][1]
        for candidate in candidates:
            if candidate.name != sub.template:
                yield _with_slot(config, index, _spliced_default(candidate))
        for new_sub in _spliced_neighbours(
                template._candidate(slot_name, sub.template), sub):
            yield _with_slot(config, index, new_sub)


def _tabled_evaluate(template, configuration, context, table):
    """Recursive evaluation through the per-descent sub-design table
    ``{(candidate, sub_configuration): Metrics | None}``."""
    sub_metrics = {}
    for slot_name, sub_config in configuration.slots:
        candidate = template._candidate(slot_name, sub_config.template)
        key = (candidate, sub_config)
        try:
            metrics = table[key]
        except KeyError:
            try:
                metrics = _tabled_evaluate(candidate, sub_config, context,
                                           table)
            except InfeasibleConfiguration:
                metrics = None
            table[key] = metrics
        if metrics is None:
            raise InfeasibleConfiguration(
                f"slot {slot_name!r} of {template.name!r} holds an "
                f"infeasible {sub_config.template!r} design")
        sub_metrics[slot_name] = metrics
    return template.cost(dict(configuration.params), sub_metrics, context)


def _spliced_random(template, rng):
    """``Template.random_configuration``: the same draws, built as
    :class:`_HashOnceConfiguration`."""
    params = tuple(sorted(
        (key, rng.choice(values))
        for key, values in template.parameters.items()))
    slots = []
    for key, candidates in template.slots.items():
        weights = [c.count_configurations() for c in candidates]
        candidate = rng.choices(candidates, weights=weights)[0]
        slots.append((key, _spliced_random(candidate, rng)))
    return _HashOnceConfiguration(template.name, params,
                                  tuple(sorted(slots)))


def _as_configuration(config):
    """A frozen reference configuration as a :class:`Configuration`."""
    return Configuration(config.template, config.params, tuple(
        (name, _as_configuration(sub)) for name, sub in config.slots))


def _reference_memo_evaluate(template, context, config, memo, table):
    found, metrics = memo.lookup(config)
    if found:
        return metrics
    try:
        metrics = _tabled_evaluate(template, config, context, table)
    except InfeasibleConfiguration:
        metrics = None
    memo.store(config, metrics)
    return metrics


def _reference_descend(template, context, config, goal):
    memo = Memo(maxsize=65536)
    table = {}
    metrics = _reference_memo_evaluate(template, context, config, memo,
                                       table)
    attempts = 0
    while metrics is None:
        improved = False
        for candidate in _spliced_neighbours(template, config):
            candidate_metrics = _reference_memo_evaluate(
                template, context, candidate, memo, table)
            if candidate_metrics is not None:
                config, metrics = candidate, candidate_metrics
                improved = True
                break
        attempts += 1
        if not improved or attempts > 100:
            return None, None, memo.misses
    score = goal.score(metrics)
    while True:
        best_neighbour = None
        for candidate in _spliced_neighbours(template, config):
            candidate_metrics = _reference_memo_evaluate(
                template, context, candidate, memo, table)
            if candidate_metrics is None:
                continue
            candidate_score = goal.score(candidate_metrics)
            if candidate_score < score:
                best_neighbour = (candidate, candidate_metrics)
                score = candidate_score
        if best_neighbour is None:
            return config, metrics, memo.misses
        config, metrics = best_neighbour


def _reference_search(template, context, goal, seed, starts):
    """``(evaluations, best)`` of the serial multi-start search."""
    rng = random.Random(seed)
    start_configs = [_spliced_random(template, rng) for _ in range(starts)]
    evaluations = 0
    best = best_rank = None
    for index, start in enumerate(start_configs):
        config, metrics, misses = _reference_descend(
            template, context, start, goal)
        evaluations += misses
        if config is not None:
            rank = (goal.score(metrics), index)
            if best_rank is None or rank < best_rank:
                best, best_rank = EvaluatedDesign(config, metrics), rank
    return evaluations, best


def test_exhaustive_reference(benchmark):
    explorer = ExhaustiveExplorer(kyber_cca(), CONTEXT)
    result = benchmark.pedantic(lambda: explorer.run(GOAL),
                                rounds=1, iterations=1)
    _results["exhaustive"] = result
    _results["traversal"] = unpruned(lambda: explorer.run(GOAL))


@pytest.mark.parametrize("starts", [1, 10, 50])
def test_local_search_starts(benchmark, starts):
    explorer = LocalSearchExplorer(kyber_cca(), CONTEXT, seed=42)
    result = benchmark.pedantic(lambda: explorer.run(GOAL, starts=starts),
                                rounds=1, iterations=1)
    _results[f"local_{starts}"] = result


def test_report_local_search(benchmark, report_dir):
    def build():
        exhaustive = _results["exhaustive"]
        rows = [[label, result.explored, f"{result.best_score:.3f}",
                 f"{result.elapsed_seconds:.2f} s", "optimal"]
                for label, result in (
                    ("exhaustive, full traversal", _results["traversal"]),
                    ("exhaustive, pruned", exhaustive))]
        for starts in (1, 10, 50):
            local = _results[f"local_{starts}"]
            gap = (local.best_score - exhaustive.best_score) \
                / exhaustive.best_score
            rows.append([f"local search ({starts} starts)",
                         local.evaluations,
                         f"{local.best_score:.3f}",
                         f"{local.elapsed_seconds:.2f} s",
                         f"gap {gap:.1%}"])
        write_table(report_dir, "local_search",
                    "Kyber-CCA: exhaustive vs local-search DSE "
                    "(area goal, d=1)",
                    ["strategy", "evaluations", "best area kGE",
                     "time", "quality"], rows)
        return rows

    benchmark.pedantic(build, rounds=1, iterations=1)
    exhaustive, traversal = _results["exhaustive"], _results["traversal"]
    fifty = _results["local_50"]
    # Paper claims: perfect result from 50 starts, far cheaper than
    # the naive exhaustive traversal.
    assert traversal.best == exhaustive.best
    assert fifty.best_score == pytest.approx(exhaustive.best_score)
    assert fifty.evaluations < exhaustive.explored / 10
    assert fifty.elapsed_seconds < traversal.elapsed_seconds


def test_index_beats_spliced_reference(benchmark, report_dir):
    """Same searches, same process: :class:`LocalSearchExplorer`'s walk
    over the integer-indexed design space against the frozen spliced
    descent, which builds a configuration per neighbour, over
    ``INDEX_ROUNDS`` interleaved rounds (:func:`~conftest.paired_rounds`),
    telemetry and PERF off.  Both sides count the same evaluations and
    find the same optimum, and the median of the rounds'
    reference/explorer ratios reaches ``INDEX_FLOOR``."""
    template = kyber_cca()
    outputs = {}

    def explorer_arm():
        outputs["explorer"] = [LocalSearchExplorer(
            template, CONTEXT, seed=seed).run(GOAL, starts=INDEX_STARTS,
                                              jobs=1)
            for seed in INDEX_SEEDS]

    def reference_arm():
        outputs["reference"] = [_reference_search(
            template, CONTEXT, GOAL, seed, INDEX_STARTS)
            for seed in INDEX_SEEDS]

    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        walls = paired_rounds({"reference": reference_arm,
                               "explorer": explorer_arm}, INDEX_ROUNDS)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    evaluations = 0
    for result, (reference_evaluations, reference_best) in zip(
            outputs["explorer"], outputs["reference"]):
        assert result.evaluations == reference_evaluations
        assert result.best.configuration == \
            _as_configuration(reference_best.configuration)
        assert result.best.metrics == reference_best.metrics
        evaluations += reference_evaluations

    ratio = median_ratio(walls["reference"], walls["explorer"])
    median = {arm: statistics.median(walls[arm]) for arm in walls}
    searched = len(INDEX_SEEDS)
    write_table(
        report_dir, "local_search_index",
        f"Kyber-CCA {INDEX_STARTS}-start local search (area goal, d=1, "
        f"seeds {INDEX_SEEDS[0]}-{INDEX_SEEDS[-1]}): explorer vs spliced "
        f"reference ({INDEX_ROUNDS} interleaved rounds, speedup = median "
        f"of the rounds' reference/explorer ratios; identical evaluations "
        f"and optima)",
        ["evaluation", "evaluations", "median wall", "per search",
         "speedup", "floor"],
        [["spliced reference", evaluations,
          f"{median['reference'] * 1e3:.1f} ms",
          f"{median['reference'] / searched * 1e3:.1f} ms", "1.00x", "-"],
         ["explorer", evaluations, f"{median['explorer'] * 1e3:.1f} ms",
          f"{median['explorer'] / searched * 1e3:.1f} ms",
          f"{ratio:.2f}x", f">= {INDEX_FLOOR:.1f}x"]])
    assert ratio >= INDEX_FLOOR, (walls, ratio)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
