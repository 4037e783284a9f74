"""Tests for the exhaustive and local-search explorers."""

import pytest

from repro.hades import (DesignContext, ExhaustiveExplorer,
                         InfeasibleConfiguration, LocalSearchExplorer,
                         Metrics, OptimizationGoal, Template, neighbours)
from repro.hades.library import aes256, chacha20, kyber_cca
from repro.hades.template import DesignIndex

from helpers import search_outcome
from test_local_search_pins import SEARCHES

G = OptimizationGoal


def _quadratic_template():
    """area = (a-3)^2 + (b-5)^2 + 1; unique optimum at a=3, b=5."""
    def cost(params, subs, context):
        return Metrics((params["a"] - 3) ** 2 + (params["b"] - 5) ** 2
                       + 1.0, 1.0)

    return Template("quad", cost, parameters={"a": tuple(range(8)),
                                              "b": tuple(range(8))})


def _nested_template():
    leaf_a = Template("leaf_a",
                      lambda p, s, c: Metrics(p["x"] + 1.0, 2.0),
                      parameters={"x": (0, 1, 2)})
    leaf_b = Template("leaf_b", lambda p, s, c: Metrics(10.0, 1.0))
    return Template(
        "parent",
        lambda p, s, c: Metrics(s["s"].area_kge + p["y"],
                                s["s"].latency_cc,
                                s["s"].randomness_bits),
        parameters={"y": (0, 5)}, slots={"s": (leaf_a, leaf_b)})


class TestExhaustive:
    def test_finds_unique_optimum(self):
        result = ExhaustiveExplorer(_quadratic_template()).run(G.AREA)
        assert result.best.configuration.param("a") == 3
        assert result.best.configuration.param("b") == 5
        assert result.best_score == 1.0

    def test_explored_equals_space_size(self):
        result = ExhaustiveExplorer(_quadratic_template()).run(G.AREA)
        assert result.explored == 64
        assert result.feasible == 64

    def test_nested_optimum(self):
        result = ExhaustiveExplorer(_nested_template()).run(G.AREA)
        assert result.best.metrics.area_kge == 1.0   # y=0, leaf_a x=0
        assert dict(result.best.configuration.slots)["s"].template == "leaf_a"

    def test_latency_goal_prefers_leaf_b(self):
        result = ExhaustiveExplorer(_nested_template()).run(G.LATENCY)
        assert dict(result.best.configuration.slots)["s"].template == "leaf_b"

    def test_all_infeasible_raises(self):
        def cost(params, subs, context):
            raise InfeasibleConfiguration("nope")

        t = Template("t", cost, parameters={"a": (1, 2)})
        with pytest.raises(InfeasibleConfiguration):
            ExhaustiveExplorer(t).run(G.AREA)

    def test_run_all_goals_skips_masked_goals_at_order_0(self):
        results = ExhaustiveExplorer(_quadratic_template(),
                                     DesignContext()).run_all_goals()
        assert G.RANDOMNESS not in results
        assert G.AREA in results

    def test_run_all_goals_includes_masked_goals_when_masked(self):
        t = Template("t", lambda p, s, c: Metrics(1, 1, p["a"] + 1.0),
                     parameters={"a": (0, 1)})
        results = ExhaustiveExplorer(
            t, DesignContext(masking_order=1)).run_all_goals()
        assert G.RANDOMNESS in results
        assert results[G.RANDOMNESS].best_score == 1.0

    def test_tie_break_prefers_smaller_alp(self):
        # Both latency-1 designs tie; the smaller-area one must win.
        t = Template("t", lambda p, s, c: Metrics(p["a"], 1.0),
                     parameters={"a": (5, 2, 9)})
        result = ExhaustiveExplorer(t).run(G.LATENCY)
        assert result.best.metrics.area_kge == 2


class TestNeighbours:
    def test_parameter_neighbours(self):
        t = _quadratic_template()
        config = t.default_configuration()
        moves = list(neighbours(t, config))
        # 7 alternatives for a + 7 for b.
        assert len(moves) == 14

    def test_slot_neighbours_include_candidate_switch(self):
        t = _nested_template()
        config = t.default_configuration()   # slot = leaf_a, x=0
        moves = list(neighbours(t, config))
        slot_templates = {dict(m.slots)["s"].template for m in moves}
        assert "leaf_b" in slot_templates
        # y: 1 alternative; slot switch: 1; leaf_a.x: 2 → 4 moves.
        assert len(moves) == 4

    def test_neighbours_differ_in_exactly_one_site(self):
        t = _quadratic_template()
        config = t.default_configuration()
        for move in neighbours(t, config):
            differing = sum(1 for (ka, va), (kb, vb)
                            in zip(config.params, move.params)
                            if va != vb)
            assert differing == 1


class TestLocalSearch:
    def test_finds_optimum_on_smooth_landscape(self):
        result = LocalSearchExplorer(_quadratic_template(),
                                     seed=7).run(G.AREA, starts=3)
        assert result.best_score == 1.0

    def test_single_start_can_miss_on_rugged_landscape(self):
        # A landscape with a deceptive local optimum.
        def cost(params, subs, context):
            a = params["a"]
            value = {0: 5.0, 1: 6.0, 2: 7.0, 3: 2.0, 4: 6.5}[a]
            return Metrics(value, 1.0)

        t = Template("rugged", cost, parameters={"a": (0, 1, 2, 3, 4)})
        # From a=0 the only downhill move is directly to 3 (coordinate
        # moves test all values of a), so this landscape is actually
        # solvable in one move — verify multi-start still finds 2.0.
        result = LocalSearchExplorer(t, seed=1).run(G.AREA, starts=2)
        assert result.best_score == 2.0

    def test_matches_exhaustive_on_nested_space(self):
        exhaustive = ExhaustiveExplorer(_nested_template()).run(G.AREA)
        local = LocalSearchExplorer(_nested_template(),
                                    seed=3).run(G.AREA, starts=10)
        assert local.best_score == exhaustive.best_score

    def test_far_fewer_evaluations_than_exhaustive(self):
        t = _quadratic_template()
        local = LocalSearchExplorer(t, seed=0).run(G.AREA, starts=2)
        assert local.evaluations < t.count_configurations() * 2

    def test_deterministic_for_seed(self):
        a = LocalSearchExplorer(_quadratic_template(), seed=5).run(
            G.AREA, starts=3)
        b = LocalSearchExplorer(_quadratic_template(), seed=5).run(
            G.AREA, starts=3)
        assert a.best.configuration == b.best.configuration

    def test_recovers_from_infeasible_start(self):
        def cost(params, subs, context):
            if params["a"] >= 3:
                raise InfeasibleConfiguration("masked LUT etc.")
            return Metrics(float(params["a"] + 1), 1.0)

        t = Template("t", cost, parameters={"a": (0, 1, 2, 3, 4, 5)})
        result = LocalSearchExplorer(t, seed=11).run(G.AREA, starts=8)
        assert result.best_score == 1.0


def _table_free_evaluate(template, configuration, context):
    """Reference: every slot priced again, no table (``None`` =
    infeasible)."""
    sub_metrics = {}
    for slot_name, sub_config in configuration.slots:
        candidate = template._candidate(slot_name, sub_config.template)
        metrics = _table_free_evaluate(candidate, sub_config, context)
        if metrics is None:
            return None
        sub_metrics[slot_name] = metrics
    try:
        return template.cost(dict(configuration.params), sub_metrics,
                             context)
    except InfeasibleConfiguration:
        return None


def _record_pricers(monkeypatch, index):
    """Spy on the pricers ``index`` builds: the returned list gains one
    ``[(rank, metrics), ...]`` per pricer, of every rank it priced."""
    pricers = []
    pricer = DesignIndex.pricer

    def recording(design_index, context):
        price = pricer(design_index, context)
        if design_index is not index:
            return price              # a sub-design's pricer
        priced = []
        pricers.append(priced)

        def recorded(rank):
            metrics = price(rank)
            priced.append((rank, metrics))
            return metrics
        return recorded

    monkeypatch.setattr(DesignIndex, "pricer", recording)
    return pricers


#: seed -> top-level cost calls of the pinned 10-start searches at
#: ``jobs=1``: fewer than their evaluations, because a design that
#: several descents of a shard reach is priced once.
PRICED = {11: 1576, 23: 1645, 2026: 1549, 31337: 1475}


class TestSubDesignTable:
    @pytest.mark.parametrize("order", (0, 1))
    @pytest.mark.parametrize("factory", (kyber_cca, aes256, chacha20),
                             ids=("kyber_cca", "aes", "chacha"))
    def test_every_visited_neighbour_matches_table_free(
            self, monkeypatch, factory, order):
        template = factory()
        context = DesignContext(masking_order=order)
        index = template.design_index
        pricers = _record_pricers(monkeypatch, index)
        LocalSearchExplorer(template, context, seed=order).run(
            G.AREA, starts=3, jobs=1)
        visited = [pair for priced in pricers for pair in priced]
        assert len(visited) > 100
        for rank, metrics in visited:
            config = index.configuration(rank)
            assert metrics == _table_free_evaluate(template, config,
                                                   context), \
                config.describe()

    def test_each_sub_design_priced_once_per_descent(self):
        calls = []

        def leaf_cost(params, subs, context):
            calls.append(("leaf", params["x"]))
            if params["x"] == 4:
                raise InfeasibleConfiguration("x=4 cannot be built")
            return Metrics(1.0 + params["x"] ** 2, 1.0)

        def mid_cost(params, subs, context):
            calls.append(("mid", params["m"], subs["s"].area_kge))
            return Metrics(subs["s"].area_kge + params["m"], 1.0)

        leaf = Template("leaf", leaf_cost,
                        parameters={"x": (0, 1, 2, 3, 4)})
        mid = Template("mid", mid_cost, parameters={"m": (0, 1, 2)},
                       slots={"s": (leaf,)})
        top = Template(
            "top",
            lambda p, s, c: Metrics(s["a"].area_kge + s["b"].area_kge
                                    + p["y"], 1.0),
            parameters={"y": (0, 1)}, slots={"a": (mid,), "b": (leaf,)})
        # Leaf areas are distinct per x below 4, so each record names
        # the sub-configuration priced.
        result = LocalSearchExplorer(top, seed=5).run(G.AREA, starts=1)
        assert result.best_score == 2.0
        assert len(calls) == len(set(calls))
        # The infeasible leaf was reached from more than one parent
        # (both slots hold leaves), yet priced once.
        assert calls.count(("leaf", 4)) == 1

    @pytest.mark.parametrize("seed", sorted(SEARCHES))
    def test_run_prices_each_design_once(self, monkeypatch, seed):
        template = kyber_cca()
        pricers = _record_pricers(monkeypatch, template.design_index)
        cost, calls = template.cost, 0

        def counted(params, subs, context):
            nonlocal calls
            calls += 1
            return cost(params, subs, context)

        # Counted where the bench tracer wraps the instance's cost.
        template.cost = counted
        context = DesignContext(masking_order=1)
        serial = search_outcome(template, context, seed, 10, jobs=1)
        assert calls == PRICED[seed]
        assert serial[0] == SEARCHES[seed][0] > calls
        (priced,) = pricers           # one shard, one pricer
        ranks = [rank for rank, _ in priced]
        assert len(ranks) == len(set(ranks))
        for jobs in (2, 3):           # PERF counts the pools: not compared
            assert search_outcome(template, context, seed, 10,
                                  jobs)[:3] == serial[:3]

    @pytest.mark.parametrize("seed,evaluations", ((3, 903), (17, 928)))
    def test_kyber_cca_evaluations_pinned(self, seed, evaluations):
        search = LocalSearchExplorer(kyber_cca(), seed=seed)
        serial = search.run(G.AREA, starts=4, jobs=1)
        assert serial.evaluations == evaluations
        parallel = search.run(G.AREA, starts=4, jobs=2)
        assert parallel.evaluations == evaluations
        assert parallel.best == serial.best
