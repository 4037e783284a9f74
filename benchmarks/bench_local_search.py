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
``bench_table1_dse_runtime``); the 1- and 10-start variants show the
accuracy/effort trade-off.  The production exhaustive fold drops
chunks whose lower bound cannot beat its running best, which is exact
but no full traversal: on these smooth analytic cost models it is
faster than 50 starts, and the table reports both.

``results/local_search_table`` times the explorer against a frozen
copy of the table-free recursive evaluation and descent that the
per-descent sub-design table replaced, in the same process.
``results/local_search_hash`` times it against a frozen copy of the
table descent as it was before configurations hashed once and
neighbours were spliced.  ``results/local_search_index`` times it
against a frozen copy of that spliced, once-hashed table descent, the
last one to build a :class:`Configuration` per neighbour, before
local search walked the integer-indexed design space.
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

from bench_table1_dse_runtime import unpruned
from conftest import median_ratio, paired_rounds, write_table

GOAL = OptimizationGoal.AREA
CONTEXT = DesignContext(masking_order=1)

#: 10-start Kyber-CCA searches (the ``dse-local`` bench op) through
#: :class:`LocalSearchExplorer` over the same searches through the
#: frozen table-free reference below: the median of ``TABLE_ROUNDS``
#: interleaved rounds' paired ratios over ``TABLE_SEEDS``, telemetry
#: and PERF off.  A same-process ratio, so asserted on every machine.
#: The reference steps through the frozen spliced neighbours over
#: once-hashed configurations.  Five runs read 1.71-1.91x on a 2-vCPU x86-64
#: KVM guest, against the sub-design table explorer.
TABLE_FLOOR = 1.3
TABLE_ROUNDS = 7
TABLE_SEEDS = (1000, 1001, 1002)
TABLE_STARTS = 10

#: The same searches against the frozen rehashing reference below: the
#: table descent driven by a ``Configuration`` that rehashes its whole
#: subtree per lookup, neighbours rebuilt through generators, slot
#: candidates found by scanning and default designs rebuilt per move.
#: Five runs read 1.34-1.40x on the same guest, against the hash-once
#: explorer.
HASH_FLOOR = 1.2
HASH_ROUNDS = 7

#: The same searches against the frozen spliced reference below: the
#: table descent over once-hashed configurations, each neighbour built
#: by splicing one tuple entry.  Twelve runs read 2.03-2.55x on the
#: same guest.
INDEX_FLOOR = 1.8
INDEX_ROUNDS = 7

_results = {}


# -- frozen reference: the descent before the sub-design table -----------

def _table_free_evaluate(template, configuration, context, table):
    """Table-free recursive evaluation: every slot is priced again
    (``table`` is unused)."""
    sub_metrics = {}
    for slot_name, sub_config in configuration.slots:
        candidate = template._candidate(slot_name, sub_config.template)
        sub_metrics[slot_name] = _table_free_evaluate(
            candidate, sub_config, context, table)
    return template.cost(dict(configuration.params), sub_metrics, context)


# -- frozen reference: the table descent before hashing once -------------

@dataclass(frozen=True)
class _RehashingConfiguration:
    """``Configuration`` before it cached its hash: the generated
    ``__hash__`` rehashes the whole subtree on every lookup."""

    template: str
    params: tuple
    slots: tuple

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def slot(self, name: str):
        for key, value in self.slots:
            if key == name:
                return value
        raise KeyError(name)


def _scanned_candidate(template, slot_name, template_name):
    for candidate in template.slots[slot_name]:
        if candidate.name == template_name:
            return candidate
    raise KeyError(
        f"no candidate {template_name!r} for slot {slot_name!r}")


def _rebuilt_default(template):
    params = tuple(sorted(
        (key, values[0]) for key, values in template.parameters.items()))
    slots = tuple(sorted(
        (key, _rebuilt_default(candidates[0]))
        for key, candidates in template.slots.items()))
    return _RehashingConfiguration(template.name, params, slots)


def _random_as(config_class):
    """``Template.random_configuration``: the same draws, built as the
    frozen ``config_class``."""
    def draw(template, rng):
        params = tuple(sorted(
            (key, rng.choice(values))
            for key, values in template.parameters.items()))
        slots = []
        for key, candidates in template.slots.items():
            weights = [c.count_configurations() for c in candidates]
            candidate = rng.choices(candidates, weights=weights)[0]
            slots.append((key, draw(candidate, rng)))
        return config_class(template.name, params, tuple(sorted(slots)))
    return draw


def _rebuilt_with_param(config, name, value):
    params = tuple((k, value if k == name else v)
                   for k, v in config.params)
    return _RehashingConfiguration(config.template, params, config.slots)


def _rebuilt_with_slot(config, name, sub):
    slots = tuple((k, sub if k == name else v) for k, v in config.slots)
    return _RehashingConfiguration(config.template, config.params, slots)


def _rebuilt_neighbours(template, config):
    for name, values in template.parameters.items():
        current = config.param(name)
        for value in values:
            if value != current:
                yield _rebuilt_with_param(config, name, value)
    for slot_name, candidates in template.slots.items():
        sub = config.slot(slot_name)
        current_candidate = _scanned_candidate(template, slot_name,
                                               sub.template)
        for candidate in candidates:
            if candidate.name != sub.template:
                yield _rebuilt_with_slot(config, slot_name,
                                         _rebuilt_default(candidate))
        for new_sub in _rebuilt_neighbours(current_candidate, sub):
            yield _rebuilt_with_slot(config, slot_name, new_sub)


def _rehashing_evaluate(template, configuration, context, table):
    """``Template.evaluate`` through the sub-design table, with the
    scanning candidate lookup."""
    if configuration.template != template.name:
        raise ValueError(
            f"configuration is for {configuration.template!r}, "
            f"not {template.name!r}")
    sub_metrics = {}
    for slot_name, sub_config in configuration.slots:
        candidate = _scanned_candidate(template, slot_name,
                                       sub_config.template)
        key = (candidate, sub_config)
        try:
            metrics = table[key]
        except KeyError:
            try:
                metrics = _rehashing_evaluate(candidate, sub_config,
                                              context, table)
            except InfeasibleConfiguration:
                metrics = None
            table[key] = metrics
        if metrics is None:
            raise InfeasibleConfiguration(
                f"slot {slot_name!r} of {template.name!r} holds an "
                f"infeasible {sub_config.template!r} design")
        sub_metrics[slot_name] = metrics
    return template.cost(dict(configuration.params), sub_metrics, context)


def _as_configuration(config):
    """A frozen reference configuration as a :class:`Configuration`."""
    return Configuration(config.template, config.params, tuple(
        (name, _as_configuration(sub)) for name, sub in config.slots))


# -- the reference descent, driven by either frozen evaluation -----------

def _reference_memo_evaluate(evaluate, template, context, config, memo,
                             table):
    found, metrics = memo.lookup(config)
    if found:
        return metrics
    try:
        metrics = evaluate(template, config, context, table)
    except InfeasibleConfiguration:
        metrics = None
    memo.store(config, metrics)
    return metrics


def _reference_descend(reference, template, context, config, goal):
    evaluate, neighbours_of = reference["evaluate"], reference["neighbours"]
    memo = Memo(maxsize=65536)
    table = {}
    metrics = _reference_memo_evaluate(evaluate, template, context, config,
                                       memo, table)
    attempts = 0
    while metrics is None:
        improved = False
        for candidate in neighbours_of(template, config):
            candidate_metrics = _reference_memo_evaluate(
                evaluate, template, context, candidate, memo, table)
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
        for candidate in neighbours_of(template, config):
            candidate_metrics = _reference_memo_evaluate(
                evaluate, template, context, candidate, memo, table)
            if candidate_metrics is None:
                continue
            candidate_score = goal.score(candidate_metrics)
            if candidate_score < score:
                best_neighbour = (candidate, candidate_metrics)
                score = candidate_score
        if best_neighbour is None:
            return config, metrics, memo.misses
        config, metrics = best_neighbour


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


#: The frozen descents: how each evaluates, steps and draws starts.
TABLE_FREE = {"evaluate": _table_free_evaluate,
              "neighbours": _spliced_neighbours,
              "random": _random_as(_HashOnceConfiguration)}
REHASHING = {"evaluate": _rehashing_evaluate,
             "neighbours": _rebuilt_neighbours,
             "random": _random_as(_RehashingConfiguration)}
SPLICED = {"evaluate": _tabled_evaluate, "neighbours": _spliced_neighbours,
           "random": _random_as(_HashOnceConfiguration)}


def _reference_search(reference, template, context, goal, seed, starts):
    """``(evaluations, best)`` of the serial multi-start search."""
    rng = random.Random(seed)
    start_configs = [reference["random"](template, rng)
                     for _ in range(starts)]
    evaluations = 0
    best = best_rank = None
    for index, start in enumerate(start_configs):
        config, metrics, misses = _reference_descend(
            reference, template, context, start, goal)
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


def _search_gate(report_dir, reference, rounds, floor, artifact, title,
                 rows):
    """Same searches, same process: :class:`LocalSearchExplorer`
    against a frozen ``reference`` descent over ``rounds`` interleaved
    rounds (:func:`~conftest.paired_rounds`), telemetry and PERF off.
    Both sides count the same evaluations and find the same optimum,
    and the median of the rounds' reference/explorer ratios reaches
    ``floor``.  ``rows`` names the reference and explorer rows."""
    template = kyber_cca()
    outputs = {}

    def explorer_arm():
        outputs["explorer"] = [LocalSearchExplorer(
            template, CONTEXT, seed=seed).run(GOAL, starts=TABLE_STARTS,
                                              jobs=1)
            for seed in TABLE_SEEDS]

    def reference_arm():
        outputs["reference"] = [_reference_search(
            reference, template, CONTEXT, GOAL, seed, TABLE_STARTS)
            for seed in TABLE_SEEDS]

    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        walls = paired_rounds({"reference": reference_arm,
                               "explorer": explorer_arm}, rounds)
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
    searched = len(TABLE_SEEDS)
    write_table(
        report_dir, artifact,
        f"Kyber-CCA {TABLE_STARTS}-start local search (area goal, d=1, "
        f"seeds {TABLE_SEEDS[0]}-{TABLE_SEEDS[-1]}): {title} ({rounds} "
        f"interleaved rounds, speedup = median of the rounds' "
        f"reference/explorer ratios; identical evaluations and optima)",
        ["evaluation", "evaluations", "median wall", "per search",
         "speedup", "floor"],
        [[rows[0], evaluations, f"{median['reference'] * 1e3:.1f} ms",
          f"{median['reference'] / searched * 1e3:.1f} ms", "1.00x", "-"],
         [rows[1], evaluations, f"{median['explorer'] * 1e3:.1f} ms",
          f"{median['explorer'] / searched * 1e3:.1f} ms",
          f"{ratio:.2f}x", f">= {floor:.1f}x"]])
    assert ratio >= floor, (walls, ratio)


def test_sub_design_table_beats_table_free_reference(benchmark,
                                                     report_dir):
    """The explorer against the frozen table-free descent, which prices
    every sub-design again."""
    _search_gate(report_dir, TABLE_FREE, TABLE_ROUNDS, TABLE_FLOOR,
                 "local_search_table",
                 "explorer vs table-free reference",
                 ["table-free reference", "explorer"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_hash_once_beats_rehashing_reference(benchmark, report_dir):
    """The explorer against the frozen table descent that rehashes and
    rebuilds every neighbour."""
    _search_gate(report_dir, REHASHING, HASH_ROUNDS, HASH_FLOOR,
                 "local_search_hash",
                 "explorer vs rehashing reference",
                 ["rehashing reference", "explorer"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_index_beats_spliced_reference(benchmark, report_dir):
    """The explorer's walk over the integer-indexed design space against
    the frozen spliced descent that builds a configuration per
    neighbour."""
    _search_gate(report_dir, SPLICED, INDEX_ROUNDS, INDEX_FLOOR,
                 "local_search_index",
                 "explorer vs spliced reference",
                 ["spliced reference", "explorer"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
