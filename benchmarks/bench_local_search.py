"""X1 — the local-search heuristic claims (Section III-A).

Paper: "For a Chosen Ciphertext Attack (CCA)-secure implementation of
Kyber more than 1.1 million designs can be explored exhaustively in
36 h.  The heuristic strategy finds an optimized Kyber in less than
200 s. ... we obtain perfect results for Kyber-CCA for as few as 50
random performance base-lines."

Both claims are reproduced against our explorer: 50-start local search
matches the exhaustive optimum while evaluating a tiny fraction of the
space, and the 1- and 10-start variants show the accuracy/effort
trade-off.

``results/local_search_table`` times the sub-design table that each
descent prices through against a frozen copy of the table-free
recursive evaluation and descent it replaced, in the same process.
"""

import random
import time

import pytest

from repro.hades import (DesignContext, EvaluatedDesign,
                         ExhaustiveExplorer, InfeasibleConfiguration,
                         LocalSearchExplorer, OptimizationGoal, neighbours)
from repro.hades.library import kyber_cca
from repro.obs import PERF, TELEMETRY
from repro.runtime import Memo

from conftest import write_table

GOAL = OptimizationGoal.AREA
CONTEXT = DesignContext(masking_order=1)

#: 10-start Kyber-CCA searches (the ``dse-local`` bench op) through
#: :class:`LocalSearchExplorer` over the same searches through the
#: frozen table-free reference below: best of ``TABLE_ROUNDS``
#: interleaved rounds over ``TABLE_SEEDS``, telemetry and PERF off.  A
#: same-process ratio, so asserted on every machine.  Eight runs read
#: 1.49-1.71x on a 2-vCPU x86-64 KVM guest, where ``bench/compare.py``
#: read 1.63x on the ``dse-local`` workload.
TABLE_FLOOR = 1.3
TABLE_ROUNDS = 7
TABLE_SEEDS = (1000, 1001, 1002)
TABLE_STARTS = 10

_results = {}


# -- frozen reference: the descent before the sub-design table -----------

def _reference_evaluate(template, configuration, context):
    """Table-free recursive evaluation: every slot is priced again."""
    sub_metrics = {}
    for slot_name, sub_config in configuration.slots:
        candidate = template._candidate(slot_name, sub_config.template)
        sub_metrics[slot_name] = _reference_evaluate(candidate, sub_config,
                                                     context)
    return template.cost(dict(configuration.params), sub_metrics, context)


def _reference_memo_evaluate(template, context, config, memo):
    found, metrics = memo.lookup(config)
    if found:
        return metrics
    try:
        metrics = _reference_evaluate(template, config, context)
    except InfeasibleConfiguration:
        metrics = None
    memo.store(config, metrics)
    return metrics


def _reference_descend(template, context, config, goal):
    memo = Memo()
    metrics = _reference_memo_evaluate(template, context, config, memo)
    attempts = 0
    while metrics is None:
        improved = False
        for candidate in neighbours(template, config):
            candidate_metrics = _reference_memo_evaluate(
                template, context, candidate, memo)
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
        for candidate in neighbours(template, config):
            candidate_metrics = _reference_memo_evaluate(
                template, context, candidate, memo)
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
    start_configs = [template.random_configuration(rng)
                     for _ in range(starts)]
    evaluations = 0
    best = best_rank = None
    for index, start in enumerate(start_configs):
        config, metrics, misses = _reference_descend(template, context,
                                                     start, goal)
        evaluations += misses
        if config is not None:
            rank = (goal.score(metrics), index)
            if best_rank is None or rank < best_rank:
                best, best_rank = EvaluatedDesign(config, metrics), rank
    return evaluations, best


def test_exhaustive_reference(benchmark):
    result = benchmark.pedantic(
        lambda: ExhaustiveExplorer(kyber_cca(), CONTEXT).run(GOAL),
        rounds=1, iterations=1)
    _results["exhaustive"] = result


@pytest.mark.parametrize("starts", [1, 10, 50])
def test_local_search_starts(benchmark, starts):
    explorer = LocalSearchExplorer(kyber_cca(), CONTEXT, seed=42)
    result = benchmark.pedantic(lambda: explorer.run(GOAL, starts=starts),
                                rounds=1, iterations=1)
    _results[f"local_{starts}"] = result


def test_report_local_search(benchmark, report_dir):
    def build():
        exhaustive = _results["exhaustive"]
        rows = [["exhaustive", exhaustive.explored,
                 f"{exhaustive.best_score:.3f}",
                 f"{exhaustive.elapsed_seconds:.2f} s", "optimal"]]
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
    exhaustive = _results["exhaustive"]
    fifty = _results["local_50"]
    # Paper claims: perfect result from 50 starts, far cheaper than
    # exhaustive.
    assert fifty.best_score == pytest.approx(exhaustive.best_score)
    assert fifty.evaluations < exhaustive.explored / 10
    assert fifty.elapsed_seconds < exhaustive.elapsed_seconds


def test_sub_design_table_beats_table_free_reference(benchmark,
                                                     report_dir):
    """Same searches, same process: the explorer's per-descent
    sub-design table against the frozen table-free descent.  Both
    sides count the same evaluations and find the same optimum, and
    the table side is faster by the floor."""
    template = kyber_cca()
    searches = {
        "table": lambda seed: LocalSearchExplorer(
            template, CONTEXT, seed=seed).run(GOAL, starts=TABLE_STARTS,
                                              jobs=1),
        "reference": lambda seed: _reference_search(
            template, CONTEXT, GOAL, seed, TABLE_STARTS)}
    best = dict.fromkeys(searches, float("inf"))
    outputs = {}
    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        for _ in range(TABLE_ROUNDS):
            for name, search in searches.items():
                start = time.perf_counter()
                outputs[name] = [search(seed) for seed in TABLE_SEEDS]
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    evaluations = 0
    for result, (reference_evaluations, reference_best) in zip(
            outputs["table"], outputs["reference"]):
        assert result.evaluations == reference_evaluations
        assert result.best.configuration == reference_best.configuration
        assert result.best.metrics == reference_best.metrics
        evaluations += reference_evaluations

    ratio = best["reference"] / best["table"]
    searched = len(TABLE_SEEDS)
    write_table(
        report_dir, "local_search_table",
        f"Kyber-CCA {TABLE_STARTS}-start local search (area goal, d=1, "
        f"seeds {TABLE_SEEDS[0]}-{TABLE_SEEDS[-1]}): per-descent "
        f"sub-design table vs table-free reference (best of "
        f"{TABLE_ROUNDS} interleaved rounds; identical evaluations and "
        f"optima)",
        ["evaluation", "evaluations", "wall", "per search", "speedup",
         "floor"],
        [["table-free reference", evaluations,
          f"{best['reference'] * 1e3:.1f} ms",
          f"{best['reference'] / searched * 1e3:.1f} ms", "1.00x", "-"],
         ["sub-design table", evaluations,
          f"{best['table'] * 1e3:.1f} ms",
          f"{best['table'] / searched * 1e3:.1f} ms", f"{ratio:.2f}x",
          f">= {TABLE_FLOOR:.1f}x"]])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= TABLE_FLOOR, (best, ratio)
