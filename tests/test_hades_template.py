"""Tests for the HADES template system, metrics and masking models."""

import dataclasses
import importlib
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hades import (Configuration, DesignContext,
                         ExhaustiveExplorer, InfeasibleConfiguration,
                         LocalSearchExplorer, Metrics, OptimizationGoal,
                         Template, enumerate_designs, neighbours)
from repro.hades import masking
from repro.hades.template import _Column, enumerate_chunks
from repro.hades.library import TABLE_I_ROWS, kyber_cca
from repro.runtime import Memo

from helpers import search_outcome


def _const_cost(area, latency, rand=0.0):
    return lambda params, subs, context: Metrics(area, latency, rand)


class TestMetrics:
    def test_products(self):
        m = Metrics(2.0, 10.0, 4.0)
        assert m.area_latency_product == 20.0
        assert m.area_latency_randomness_product == 80.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Metrics(-1.0, 1.0)

    @pytest.mark.parametrize("goal,expected", [
        (OptimizationGoal.LATENCY, 10.0),
        (OptimizationGoal.AREA, 2.0),
        (OptimizationGoal.RANDOMNESS, 4.0),
        (OptimizationGoal.AREA_LATENCY, 20.0),
        (OptimizationGoal.AREA_LATENCY_RANDOMNESS, 80.0),
    ])
    def test_goal_scores(self, goal, expected):
        assert goal.score(Metrics(2.0, 10.0, 4.0)) == expected

    def test_masking_only_goals(self):
        assert OptimizationGoal.RANDOMNESS.needs_masking
        assert not OptimizationGoal.AREA.needs_masking


class TestMaskingModel:
    def test_shares(self):
        assert masking.shares(0) == 1
        assert masking.shares(2) == 3

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            masking.shares(-1)

    def test_gadget_randomness_follows_d_d1_over_2(self):
        assert masking.and_gadget_randomness_bits(0) == 0
        assert masking.and_gadget_randomness_bits(1) == 1
        assert masking.and_gadget_randomness_bits(2) == 3
        assert masking.and_gadget_randomness_bits(3) == 6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 8))
    def test_gadget_area_monotone_in_order(self, order):
        assert masking.and_gadget_area_ge(order + 1) > \
            masking.and_gadget_area_ge(order)

    def test_latency_stages_order_independent(self):
        assert masking.and_gadget_latency_stages(0) == 0
        assert masking.and_gadget_latency_stages(1) == \
            masking.and_gadget_latency_stages(5)


class TestTemplate:
    def test_count_parameters_multiply(self):
        t = Template("t", _const_cost(1, 1),
                     parameters={"a": (1, 2, 3), "b": ("x", "y")})
        assert t.count_configurations() == 6

    def test_count_slots_sum_then_multiply(self):
        leaf_a = Template("leaf_a", _const_cost(1, 1),
                          parameters={"p": (1, 2)})
        leaf_b = Template("leaf_b", _const_cost(2, 2))
        parent = Template("parent", _const_cost(0, 0),
                          parameters={"q": (1, 2, 3)},
                          slots={"s": (leaf_a, leaf_b)})
        assert parent.count_configurations() == 3 * (2 + 1)

    def test_enumeration_matches_count(self):
        leaf_a = Template("leaf_a", _const_cost(1, 1),
                          parameters={"p": (1, 2)})
        leaf_b = Template("leaf_b", _const_cost(2, 2))
        parent = Template(
            "parent",
            lambda params, subs, context: Metrics(
                subs["s"].area_kge + params["q"], subs["s"].latency_cc,
                subs["s"].randomness_bits),
            parameters={"q": (1, 2, 3)}, slots={"s": (leaf_a, leaf_b)})
        designs = list(enumerate_designs(parent, DesignContext()))
        assert len(designs) == parent.count_configurations()

    def test_nested_metrics_flow_upward(self):
        leaf = Template("leaf", _const_cost(1.5, 7))
        parent = Template(
            "parent",
            lambda params, subs, context: Metrics(
                subs["s"].area_kge * 2, subs["s"].latency_cc,
                subs["s"].randomness_bits),
            slots={"s": (leaf,)})
        design = next(iter(enumerate_designs(parent, DesignContext())))
        assert design.metrics.area_kge == 3.0
        assert design.metrics.latency_cc == 7

    def test_empty_parameter_rejected(self):
        with pytest.raises(ValueError):
            Template("t", _const_cost(1, 1), parameters={"a": ()})

    def test_empty_slot_rejected(self):
        with pytest.raises(ValueError):
            Template("t", _const_cost(1, 1), slots={"s": ()})

    def test_duplicate_candidate_names_rejected(self):
        # A configuration names its candidate, so a second candidate
        # with the same name could never be priced.
        first = Template("leaf", _const_cost(1, 1))
        second = Template("leaf", _const_cost(2, 2))
        with pytest.raises(ValueError, match="one name"):
            Template("t", _const_cost(1, 1),
                     slots={"s": (first, second)})

    def test_infeasible_configurations_skipped(self):
        def cost(params, subs, context):
            if params["a"] == 2:
                raise InfeasibleConfiguration("no")
            return Metrics(1, 1)

        t = Template("t", cost, parameters={"a": (1, 2, 3)})
        designs = list(enumerate_designs(t, DesignContext()))
        assert len(designs) == 2
        assert t.count_configurations() == 3   # space size unchanged

    def test_evaluate_specific_configuration(self):
        t = Template("t", lambda p, s, c: Metrics(p["a"], 1),
                     parameters={"a": (1, 2, 3)})
        config = Configuration("t", (("a", 2),), ())
        assert t.evaluate(config, DesignContext()).area_kge == 2

    def test_evaluate_rejects_foreign_configuration(self):
        t = Template("t", _const_cost(1, 1))
        with pytest.raises(ValueError):
            t.evaluate(Configuration("other", (), ()), DesignContext())

    def test_default_configuration_is_first(self):
        leaf = Template("leaf", _const_cost(1, 1),
                        parameters={"p": (10, 20)})
        parent = Template("parent", lambda p, s, c: s["s"],
                          slots={"s": (leaf,)})
        config = parent.default_configuration()
        assert dict(config.slots)["s"].param("p") == 10

    def test_random_configuration_valid(self):
        import random
        leaf_a = Template("leaf_a", _const_cost(1, 1),
                          parameters={"p": (1, 2)})
        leaf_b = Template("leaf_b", _const_cost(2, 2))
        parent = Template("parent", lambda p, s, c: s["s"],
                          parameters={"q": (1, 2, 3)},
                          slots={"s": (leaf_a, leaf_b)})
        rng = random.Random(3)
        seen = set()
        for _ in range(50):
            config = parent.random_configuration(rng)
            parent.evaluate(config, DesignContext())   # must not raise
            seen.add(config)
        assert len(seen) > 3

    def test_describe_readable(self):
        t = Template("t", _const_cost(1, 1), parameters={"a": (1,)})
        assert "a=1" in t.default_configuration().describe()

    def test_context_validation(self):
        with pytest.raises(ValueError):
            DesignContext(masking_order=-1)
        with pytest.raises(ValueError):
            DesignContext(width=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
    def test_count_formula_property(self, n_params, n_candidates, n_leaf):
        """Closed-form count always equals brute-force enumeration."""
        leaves = [Template(f"leaf{i}", _const_cost(1, 1),
                           parameters={"p": tuple(range(n_leaf))})
                  for i in range(n_candidates)]
        parent = Template("parent", lambda p, s, c: s["s"],
                          parameters={"a": tuple(range(n_params))},
                          slots={"s": tuple(leaves)})
        count = parent.count_configurations()
        assert count == n_params * n_candidates * n_leaf
        assert count == len(list(enumerate_designs(parent,
                                                   DesignContext())))


def _counting_tree(infeasible_x=None):
    """parent(y) -> mid(m) -> leaf(x), plus the same leaf object in a
    second slot; every leaf and mid cost call is recorded with its
    masking order, parameter and sub-design area.  Leaf areas are
    distinct, so a record names the sub-configuration priced.
    ``infeasible_x`` makes that leaf infeasible."""
    calls = []

    def leaf_cost(params, subs, context):
        calls.append((context.masking_order, "leaf", params["x"]))
        if params["x"] == infeasible_x:
            raise InfeasibleConfiguration("leaf cannot be built")
        return Metrics(1.0 + params["x"], 1.0)

    def mid_cost(params, subs, context):
        calls.append((context.masking_order, "mid", params["m"],
                      subs["s"].area_kge))
        return Metrics(subs["s"].area_kge * params["m"], 2.0)

    leaf = Template("leaf", leaf_cost, parameters={"x": (0, 1, 2)})
    mid = Template("mid", mid_cost, parameters={"m": (1, 2)},
                   slots={"s": (leaf,)})
    parent = Template(
        "parent",
        lambda p, s, c: Metrics(s["a"].area_kge + s["b"].area_kge
                                + p["y"], 1.0),
        parameters={"y": (0, 1)}, slots={"a": (mid,), "b": (leaf,)})
    return parent, calls


def _config(y, m, a_x, b_x):
    return Configuration("parent", (("y", y),), (
        ("a", Configuration("mid", (("m", m),), (
            ("s", Configuration("leaf", (("x", a_x),), ())),))),
        ("b", Configuration("leaf", (("x", b_x),), ()))))


# -- frozen reference: the neighbour generator before the index ----------

def _frozen_default(template):
    return Configuration(
        template.name,
        tuple(sorted((key, values[0])
                     for key, values in template.parameters.items())),
        tuple(sorted((key, _frozen_default(candidates[0]))
                     for key, candidates in template.slots.items())))


def _frozen_neighbours(template, config):
    """Every single-decision variation, spliced into the parent's
    tuples: parameters, then per slot the other candidates' defaults
    and the sub-design's own neighbours, in declared order."""
    for name, values in template.parameters.items():
        index = [key for key, _ in config.params].index(name)
        for value in values:
            if value != config.params[index][1]:
                yield Configuration(config.template, config.params[:index]
                                    + ((name, value),)
                                    + config.params[index + 1:],
                                    config.slots)
    for slot_name, candidates in template.slots.items():
        index = [key for key, _ in config.slots].index(slot_name)
        sub = config.slots[index][1]
        moves = [_frozen_default(candidate) for candidate in candidates
                 if candidate.name != sub.template]
        moves += _frozen_neighbours(
            template._candidate(slot_name, sub.template), sub)
        for new_sub in moves:
            yield Configuration(config.template, config.params,
                                config.slots[:index]
                                + ((slot_name, new_sub),)
                                + config.slots[index + 1:])


def _scalar(template, config, context):
    try:
        return template.evaluate(config, context)
    except InfeasibleConfiguration:
        return None


class TestDesignIndex:
    @pytest.mark.parametrize("factory", [row[1] for row in TABLE_I_ROWS],
                             ids=[row[1].__name__ for row in TABLE_I_ROWS])
    def test_ranks_round_trip_and_neighbours_match_frozen(self, factory):
        template = factory()
        index = template.design_index
        assert index.count == template.count_configurations()
        assert template.default_configuration() == \
            _frozen_default(template) == index.configuration(0)
        rng = random.Random(factory.__name__)
        starts = [template.random_configuration(rng) for _ in range(6)]
        for config in starts + [_frozen_default(template)]:
            rank = index.rank_of(config)
            assert 0 <= rank < index.count
            assert index.configuration(rank) == config
            expected = list(_frozen_neighbours(template, config))
            assert [index.configuration(neighbour) for neighbour
                    in index.neighbours(rank)] == expected
            assert list(neighbours(template, config)) == expected

    @pytest.mark.parametrize("order", (0, 1, 2))
    @pytest.mark.parametrize("factory", [row[1] for row in TABLE_I_ROWS],
                             ids=[row[1].__name__ for row in TABLE_I_ROWS])
    def test_pricing_matches_scalar_evaluate(self, factory, order):
        template = factory()
        context = DesignContext(masking_order=order)
        index = template.design_index
        price = index.pricer(context)
        rng = random.Random(order)
        for _ in range(40):
            rank = rng.randrange(index.count)
            assert price(rank) == _scalar(
                template, index.configuration(rank), context)

    def test_infeasible_leaf_keeps_its_rank_and_is_marked(self):
        parent, calls = _counting_tree(infeasible_x=1)
        context = DesignContext()
        index = parent.design_index
        assert index.count == 2 * (2 * 3) * 3
        price = index.pricer(context)
        infeasible = [_config(0, 1, 0, 1), _config(1, 2, 1, 0),
                      _config(1, 1, 1, 1)]
        for config in infeasible:
            rank = index.rank_of(config)
            assert index.configuration(rank) == config
            assert price(rank) is None
        # Reached from both slots, the infeasible leaf is priced once.
        assert calls.count((0, "leaf", 1)) == 1
        for config in infeasible:
            with pytest.raises(InfeasibleConfiguration):
                parent.evaluate(config, context)
        # The infeasible design is still a neighbour of a feasible one.
        feasible = index.rank_of(_config(0, 1, 0, 0))
        assert price(feasible).area_kge == 2.0
        assert index.rank_of(infeasible[0]) in index.neighbours(feasible)

    def test_shared_leaf_priced_once_per_context_across_searches(self):
        parent, calls = _counting_tree()
        for order in (0, 0, 1, 1):
            LocalSearchExplorer(parent, DesignContext(masking_order=order),
                                seed=len(calls)).run(
                OptimizationGoal.AREA, starts=3, jobs=1)
        # One leaf object fills slots "a.s" and "b": each sub-design is
        # priced once per masking order, whichever slot reached it.
        assert len(calls) == len(set(calls))
        for order in (0, 1):
            assert {call[2] for call in calls
                    if call[:2] == (order, "leaf")} == {0, 1, 2}

    @pytest.mark.parametrize("order", (0, 1, 2))
    @pytest.mark.parametrize("name,factory,count", TABLE_I_ROWS,
                             ids=[row[0] for row in TABLE_I_ROWS])
    def test_fold_streams_in_rank_order(self, name, factory, count, order):
        """The exhaustive fold streams designs in rank order, the one
        numbering both explorers share (Kyber-CCA: its first 43 chunks,
        across a change of every outer digit but the comparator's)."""
        template = factory()
        index = template.design_index
        designs = enumerate_designs(template,
                                    DesignContext(masking_order=order))
        if count > 50_000:
            designs = itertools.islice(designs, 43 * 1302)
        ranks = [index.rank_of(design.configuration) for design in designs]
        assert ranks
        assert all(low < high for low, high in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_cold_and_warm_index_identical(self, jobs):
        """Local search and the exhaustive fold share the index's
        per-context tables: each explorer's outcome is the same on a
        fresh template, after itself and after the other."""
        context = DesignContext(masking_order=1)

        def fold(template):
            return _fold_outcome(ExhaustiveExplorer(template, context).run(
                OptimizationGoal.AREA, jobs=jobs))

        template = kyber_cca()
        cold = search_outcome(template, context, 9, 4, jobs)
        warm = search_outcome(template, context, 9, 4, jobs)
        assert warm == cold
        assert cold == search_outcome(kyber_cca(), context, 9, 4, jobs)
        assert cold[0] > 0 and cold[1] > 0
        cold_fold = fold(kyber_cca())
        assert fold(template) == cold_fold      # after local search
        assert fold(template) == cold_fold      # after itself
        folded = kyber_cca()
        assert fold(folded) == cold_fold
        assert search_outcome(folded, context, 9, 4, jobs) == cold

    def test_replaced_cost_is_honoured_by_next_search(self):
        template = Template("t", lambda p, s, c: Metrics(1.0 + p["a"], 1.0),
                            parameters={"a": (0, 1, 2, 3)})
        search = LocalSearchExplorer(template, seed=1)
        assert search.run(OptimizationGoal.AREA, starts=2).best \
            .configuration.param("a") == 0
        original, calls = template.cost, []

        def wrapped(params, subs, context):
            calls.append(params["a"])
            return original(params, subs, context)

        template.cost = wrapped
        result = search.run(OptimizationGoal.AREA, starts=2)
        assert result.best.configuration.param("a") == 0 and calls
        template.cost = lambda p, s, c: Metrics(4.0 - p["a"], 1.0)
        assert search.run(OptimizationGoal.AREA, starts=2).best \
            .configuration.param("a") == 3


#: Prints a pickled seeded Kyber-CCA start, built in a fresh
#: interpreter whose string hashes differ from this one's.
_PICKLE_IN_CHILD = """
import pickle, random, sys
from repro.hades.library import kyber_cca
config = kyber_cca().random_configuration(random.Random(7))
sys.stdout.buffer.write(pickle.dumps(config))
"""


class TestConfigurationHash:
    def test_equal_configurations_hash_equal(self):
        first = kyber_cca().random_configuration(random.Random(5))
        second = kyber_cca().random_configuration(random.Random(5))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert kyber_cca().default_configuration() == \
            kyber_cca().default_configuration()
        assert hash(first) == hash(
            (first.template, first.params, first.slots))

    def test_fields_are_frozen(self):
        config = Configuration("t", (("a", 1),), ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.template = "u"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config._hash = 0

    def test_repr_unchanged(self):
        leaf = Configuration("leaf", (("x", 2),), ())
        config = Configuration("t", (("a", 1),), (("s", leaf),))
        assert repr(config) == (
            "Configuration(template='t', params=(('a', 1),), "
            "slots=(('s', Configuration(template='leaf', "
            "params=(('x', 2),), slots=())),))")

    def test_pickle_from_other_hash_seed_finds_its_entries(self):
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        root = Path(__file__).resolve().parent.parent
        child = subprocess.run(
            [sys.executable, "-c", _PICKLE_IN_CHILD], check=True,
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(root / "src")})
        unpickled = pickle.loads(child.stdout)
        template = kyber_cca()
        local = template.random_configuration(random.Random(7))
        assert unpickled == local and hash(unpickled) == hash(local)
        assert {local: "entry"}[unpickled] == "entry"
        context = DesignContext(masking_order=1)
        metrics = template.evaluate(local, context)
        memo = Memo(maxsize=8)
        memo.store(local, metrics)
        assert memo.lookup(unpickled) == (True, metrics)
        index = template.design_index
        assert index.rank_of(unpickled) == index.rank_of(local)
        assert template.evaluate(unpickled, context) == metrics


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def table1_bench():
    """The Table I bench module, which holds the frozen eager lane
    column (``EAGER``) and ``eager(run)``, a call with it swapped in."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("bench_table1_dse_runtime")
    finally:
        sys.path.remove(str(BENCHMARKS))


#: The frozen unpruned fold's outcomes by (template, masking order),
#: shared by the ``jobs`` cases.
_UNPRUNED_OUTCOMES = {}


def _fold_outcome(result) -> tuple:
    metrics = result.best.metrics
    return (result.explored, result.feasible, result.best.configuration,
            [(value, type(value)) for value in (
                metrics.area_kge, metrics.latency_cc,
                metrics.randomness_bits)])


def _recording(template):
    """Record every result ``template``'s cost returns, in call order."""
    results, cost = [], template.cost

    def recorded(params, subs, context):
        results.append(cost(params, subs, context))
        return results[-1]

    template.cost = recorded
    return results


def _raised(call):
    """``call()``'s exception type and message, or None."""
    try:
        call()
    except Exception as error:
        return type(error), str(error)
    return None


class TestLazyColumns:
    """Lazy lane columns change when a lane is computed, never how: each
    fold decides exactly what the frozen eager fold decides."""

    @pytest.mark.parametrize("order", (0, 1, 2))
    @pytest.mark.parametrize("name,factory,count", TABLE_I_ROWS,
                             ids=[row[0] for row in TABLE_I_ROWS])
    def test_folds_match_frozen_eager_fold(self, table1_bench, name,
                                           factory, count, order):
        explorer = ExhaustiveExplorer(
            factory(), DesignContext(masking_order=order))
        # Kyber-CCA's per-goal runs (seconds each) are covered by its
        # AREA run, the Table I op, and by the all-goals fold.
        goals = list(OptimizationGoal) if count <= 50_000 \
            else [OptimizationGoal.AREA]
        if order == 0:
            goals = [goal for goal in goals if not goal.needs_masking]
        eager = table1_bench.eager(
            lambda: explorer.run_all_goals(jobs=1))
        lazy = explorer.run_all_goals(jobs=1)
        assert list(lazy) == list(eager)
        for goal in lazy:
            assert _fold_outcome(lazy[goal]) == _fold_outcome(eager[goal])
        for goal in goals:
            assert _fold_outcome(explorer.run(goal, jobs=1)) == \
                _fold_outcome(eager[goal])

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("order", (0, 1, 2))
    @pytest.mark.parametrize("name,factory,count", TABLE_I_ROWS,
                             ids=[row[0] for row in TABLE_I_ROWS])
    def test_pruned_fold_matches_frozen_unpruned_fold(
            self, table1_bench, name, factory, count, order, jobs):
        """Pruning skips only lanes proven to lose: every goal's
        outcome is the frozen unpruned fold's, serial and sharded."""
        explorer = ExhaustiveExplorer(
            factory(), DesignContext(masking_order=order))
        key = name, order
        if key not in _UNPRUNED_OUTCOMES:
            _UNPRUNED_OUTCOMES[key] = {
                goal: _fold_outcome(result) for goal, result in
                table1_bench.unpruned(
                    lambda: explorer.run_all_goals(jobs=1)).items()}
        unpruned = _UNPRUNED_OUTCOMES[key]
        pruned = explorer.run_all_goals(jobs=jobs)
        assert list(pruned) == list(unpruned)
        for goal, result in pruned.items():
            assert result.jobs == jobs
            assert _fold_outcome(result) == unpruned[goal]
            assert result.evaluations == result.feasible
        goals = list(pruned) if count <= 50_000 \
            else [OptimizationGoal.AREA]
        for goal in goals:
            assert _fold_outcome(explorer.run(goal, jobs=jobs)) == \
                unpruned[goal]

    def test_losing_chunk_never_computes_other_columns(self):
        """An AREA fold computes no column of a chunk whose area floor
        is above the running best, or ties it with an area-latency
        product floor above the best's; randomness is computed only for
        a design that becomes the best."""
        leaf = Template("leaf", lambda p, s, c: Metrics(p["x"], 2.0, 1),
                        parameters={"x": (1, 2, 3)})
        parent = Template(
            "parent", lambda p, s, c: Metrics(
                s["s"].area_kge * p["a"], s["s"].latency_cc + p["b"],
                s["s"].randomness_bits * 2),
            parameters={"a": (2, 1, 3), "b": (0, 1)}, slots={"s": (leaf,)})
        results = _recording(parent)
        best = ExhaustiveExplorer(parent).run(OptimizationGoal.AREA,
                                              jobs=1).best
        assert best.metrics == Metrics(1, 2.0, 2)
        forced = [tuple(column._lanes is not None for column in (
            result.area_kge, result.latency_cc, result.randomness_bits))
            for result in results]
        # Chunks (a, b): (2, 0) and (1, 0) become the best; (2, 1) and
        # (1, 1) tie on area and lose on area-latency product; (3, 0)
        # and (3, 1) lose on area alone.  Only the winners compute.
        none, every = (False, False, False), (True, True, True)
        assert forced == [every, none, every, none, none, none]

    def test_column_division_by_zero_lane_raises_in_cost(self):
        """Division computes at once: an AREA fold that never reads the
        latency column still fails inside the cost call."""
        leaf = Template("leaf", lambda p, s, c: Metrics(p["x"], 2.0),
                        parameters={"x": (0, 1, 2)})
        parent = Template(
            "parent", lambda p, s, c: Metrics(
                s["s"].latency_cc + 1, s["s"].latency_cc / s["s"].area_kge),
            slots={"s": (leaf,)})
        with pytest.raises(ZeroDivisionError) as raised:
            ExhaustiveExplorer(parent).run(OptimizationGoal.AREA, jobs=1)
        assert raised.traceback[-2].name == "<lambda>"   # the cost

    def test_deep_chain_forces_without_recursion(self):
        column = _Column([1.0, 2.0], True)
        total = 0
        for _ in range(5_000):
            total = total + column
        assert total.lanes == [5_000.0, 10_000.0]
        assert total.nonneg and total.width == 2

    def test_deep_chain_floor_without_recursion(self):
        column = _Column([1.0, 2.0], True)
        total = 0
        for _ in range(5_000):
            total = total + column
        assert total.floor == 5_000.0
        assert total._lanes is None and column.floor == 1.0

    def test_floor_of_product_by_negative_scalar_reads_lanes(self):
        """``*`` by a negative factor reverses the lanes' order, so the
        product of floors is no bound there: the floor is the minimum
        of the computed lanes."""
        product = _Column([1.0, 3.0], True) * -2
        column = product + 10
        assert product._lanes is None and column._lanes is None
        assert column.floor == 4.0 == min(column.lanes)
        assert product._lanes == [-2.0, -6.0]
        # Both factors must be non-negative, not just the second: the
        # product of floors would read -6.0 here.
        assert (product * _Column([1.0, 3.0], True)).floor == -18.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_floor_bounds_every_lane(self, data):
        """Over random ``+`` / ``*`` chains of non-negative leaves and
        scalars of either sign, no lane is below the floor, and a chain
        over a single leaf has its minimum lane as its floor."""
        width = data.draw(st.integers(1, 5))
        number = st.one_of(st.integers(0, 50),
                           st.floats(0, 1e3, allow_nan=False))
        leaves = [_Column(data.draw(st.lists(number, min_size=width,
                                             max_size=width)), True)
                  for _ in range(data.draw(st.integers(1, 3)))]
        scalar = st.one_of(st.integers(-20, 20),
                           st.floats(-1e3, 1e3, allow_nan=False))
        column, leaf_uses = leaves[0], 1
        for _ in range(data.draw(st.integers(1, 12))):
            if data.draw(st.booleans()):
                operand = data.draw(st.sampled_from(leaves))
                leaf_uses += 1
            else:
                operand = data.draw(scalar)
            operate = data.draw(st.sampled_from(
                (lambda a, b: a + b, lambda a, b: a * b)))
            column = operate(column, operand) if data.draw(st.booleans()) \
                else operate(operand, column)
        floor = column.floor
        lanes = column.lanes
        assert all(floor <= lane for lane in lanes), (floor, lanes)
        if leaf_uses == 1:
            assert floor == min(lanes)

    def test_nonneg_below_zero_reads_no_lane(self, table1_bench):
        """``x < 0`` on a non-negative column is ``False`` without a
        lane; every other comparison answers (or raises ``TypeError``)
        as the eager column does."""
        column = _Column([1.0, 2.0], True) * 3 + 1
        assert (column < 0) is False and column._lanes is None
        eager = table1_bench.EAGER
        for nonneg in (True, False):
            for other in (0, -1, 1.5, 3, None, "x",
                          [0.5, 3.0], [1.0, 2.0], [3.0, 3.0]):
                def compare(column_class):
                    column = column_class([1.0, 2.0], nonneg)
                    right = column_class(other) \
                        if type(other) is list else other
                    return _raised(lambda: bool(column < right)) or \
                        bool(column < right)

                assert compare(_Column) == compare(eager), (nonneg, other)

    @pytest.mark.parametrize("cost", [
        lambda p, s, c: Metrics(1.0, 1.0) if s["s"].area_kge * 2 + 1 < 5
        else Metrics(2.0, 2.0),
        lambda p, s, c: Metrics(s["s"].area_kge * -1 + 2.5, 1.0),
        lambda p, s, c: Metrics(1.0, -2 * s["s"].latency_cc + 5.5),
        lambda p, s, c: Metrics(s["s"].area_kge + None, 1.0),
    ], ids=["branch", "negative-area", "negative-latency", "non-number"])
    def test_errors_match_frozen_eager_fold(self, table1_bench, cost):
        """A branch on disagreeing lanes (``TypeError``), a negative
        lane (the lane replay's ``ValueError``) and a non-number scalar
        (``TypeError``) surface from the fold as they did eagerly."""
        leaf = Template("leaf", lambda p, s, c: Metrics(p["x"], p["x"]),
                        parameters={"x": (1, 2, 3)})
        parent = Template("parent", cost, slots={"s": (leaf,)})
        explorer = ExhaustiveExplorer(parent)

        def run():
            return explorer.run(OptimizationGoal.AREA, jobs=1)

        lazy = _raised(run)
        assert lazy is not None and lazy[0] in (TypeError, ValueError)
        assert lazy == _raised(lambda: table1_bench.eager(run))
