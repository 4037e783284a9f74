"""HADES design-space exploration walkthrough (paper Section III-A).

Run:  python examples/hades_dse.py

1. regenerates the Table I configuration counts,
2. explores the masked AES-256 space per optimization goal (Table II),
3. shows the local-search heuristic matching the exhaustive optimum on
   the 1.1M-point Kyber-CCA space at a fraction of the cost,
4. compares HADES-native masking against the AGEMA baseline.
"""

import time

from repro.hades import (DesignContext, ExhaustiveExplorer,
                         InfeasibleConfiguration, LocalSearchExplorer,
                         OptimizationGoal, agema_adder, enumerate_designs,
                         neighbours)
from repro.hades.library import TABLE_I_ROWS, adder_family, aes256, \
    kyber_cca


def table_i():
    print("== Table I: exhaustive DSE over the template library ==")
    print(f"{'algorithm':<34} {'#configs':>9} {'time':>10}")
    for name, factory, expected in TABLE_I_ROWS:
        template = factory()
        count = template.count_configurations()
        assert count == expected
        started = time.perf_counter()
        ExhaustiveExplorer(template, DesignContext(
            masking_order=1)).run(OptimizationGoal.AREA)
        elapsed = time.perf_counter() - started
        print(f"{name:<34} {count:>9} {elapsed:>9.3f}s")


def table_ii():
    print("\n== Table II: masked AES-256 design points ==")
    for order in (0, 1, 2):
        explorer = ExhaustiveExplorer(aes256(),
                                      DesignContext(masking_order=order))
        results = explorer.run_all_goals()
        for goal, result in results.items():
            m = result.best.metrics
            config = result.best.configuration
            print(f"d={order} {goal.value:>4}: {m.area_kge:8.1f} kGE  "
                  f"{m.randomness_bits:6.0f} bits  "
                  f"{m.latency_cc:5.0f} cc   "
                  f"[{config.param('datapath')}-bit "
                  f"{config.param('sbox')}]")


def local_search():
    print("\n== Local search vs exhaustive on Kyber-CCA (1 148 364) ==")
    context = DesignContext(masking_order=1)
    started = time.perf_counter()
    exhaustive = ExhaustiveExplorer(kyber_cca(), context).run(
        OptimizationGoal.AREA)
    exhaustive_time = time.perf_counter() - started
    print(f"exhaustive: best {exhaustive.best_score:.2f} kGE in "
          f"{exhaustive_time:.1f}s ({exhaustive.explored} designs)")
    for starts in (1, 10, 50):
        local = LocalSearchExplorer(kyber_cca(), context, seed=42).run(
            OptimizationGoal.AREA, starts=starts)
        gap = (local.best_score - exhaustive.best_score) \
            / exhaustive.best_score
        print(f"local x{starts:<3}: best {local.best_score:.2f} kGE, "
              f"{local.evaluations} evaluations, gap {gap:.1%}")
    # A local optimum: no single-decision move (the paper: parameters
    # "varied individually") finds a smaller design.
    template = kyber_cca()
    moves = list(neighbours(template, local.best.configuration))
    for move in moves:
        try:
            area = template.evaluate(move, context).area_kge
        except InfeasibleConfiguration:
            continue
        assert area >= local.best_score
    print(f"none of the optimum's {len(moves)} neighbours is smaller")


def agema():
    print("\n== HADES vs AGEMA on first-order masked 32-bit adders ==")
    context = DesignContext(masking_order=1, width=32)
    print(f"{'architecture':<38} {'HADES kGE':>10} {'AGEMA kGE':>10}")
    for template in adder_family():
        design = min(enumerate_designs(template, context),
                     key=lambda d: d.metrics.area_kge)
        params = dict(design.configuration.params)
        baseline = agema_adder(template.name, params, context)
        label = design.configuration.describe()[:38]
        print(f"{label:<38} {design.metrics.area_kge:>10.2f} "
              f"{baseline.metrics.area_kge:>10.2f}")


def main():
    table_i()
    table_ii()
    local_search()
    agema()


if __name__ == "__main__":
    main()
