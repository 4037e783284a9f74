"""Property tests for the seeded adversary mutators (ISSUE 7).

Pins the three contracts the coverage-guided loop leans on:

* purity — the same seed derives the same op sequence / mutation /
  boot image every time, on every machine;
* spread — distinct seeds produce distinct inputs at a bounded
  collision rate (the generator actually explores);
* shrink — ``ddmin`` returns a 1-minimal subsequence that still
  replays, and real silent-corruption cases minimize to strictly
  shorter repros.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.adversary.mutators import (BOOT_OPS, BUS_OPS,
                                             DELIVERY_OPS, MAX_OPS,
                                             TASK_OPS, apply_boot_ops,
                                             boot_base_image,
                                             derive_seed,
                                             ops_from_json,
                                             ops_to_json)
from repro.faults.adversary.shrink import ddmin, shrink_case

SPACES = {"boot": BOOT_OPS, "task": TASK_OPS,
          "delivery": DELIVERY_OPS, "bus": BUS_OPS}

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)
space_names = st.sampled_from(sorted(SPACES))


class TestSeedTree:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_derive_seed_stable_and_64_bit(self, seed):
        value = derive_seed("x", seed)
        assert value == derive_seed("x", seed)
        assert 0 <= value < 2 ** 64

    def test_length_prefixing_prevents_concat_collisions(self):
        assert derive_seed("a", "bc") != derive_seed("ab", "c")

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=1000))
    def test_child_seed_differs_from_parent(self, seed, index):
        assert derive_seed("child", seed, index) != seed

    def test_children_distinct(self):
        children = {derive_seed("child", 42, index) for index in range(256)}
        assert len(children) == 256


class TestSeededPurity:
    @settings(max_examples=40, deadline=None)
    @given(space_names, seeds)
    def test_same_seed_same_ops(self, name, seed):
        space = SPACES[name]
        assert space.ops(random.Random(seed)) == \
            space.ops(random.Random(seed))

    @settings(max_examples=40, deadline=None)
    @given(space_names, seeds, seeds)
    def test_same_seed_same_mutation(self, name, gen_seed, mut_seed):
        space = SPACES[name]
        ops = space.ops(random.Random(gen_seed))
        assert space.mutate(ops, random.Random(mut_seed)) == \
            space.mutate(ops, random.Random(mut_seed))

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_boot_image_application_pure(self, seed):
        base = boot_base_image()
        ops = BOOT_OPS.ops(random.Random(seed))
        assert apply_boot_ops(base, ops) == apply_boot_ops(base, ops)
        assert apply_boot_ops(base, ()) == base

    @settings(max_examples=40, deadline=None)
    @given(space_names, seeds)
    def test_ops_round_trip_json(self, name, seed):
        ops = SPACES[name].ops(random.Random(seed))
        assert ops_from_json(ops_to_json(ops)) == ops

    @settings(max_examples=40, deadline=None)
    @given(space_names, seeds, seeds)
    def test_mutation_respects_max_ops(self, name, gen_seed, mut_seed):
        space = SPACES[name]
        rng = random.Random(gen_seed)
        ops = tuple(space.random_op(rng) for _ in range(MAX_OPS))
        mutated = space.mutate(ops, random.Random(mut_seed))
        assert len(mutated) <= MAX_OPS


class TestSeedSpread:
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_bounded_collision_rate_across_seeds(self, name):
        """100 sibling seeds must spread over the op space: a
        degenerate generator would funnel them into a handful of
        sequences and the campaign would explore nothing."""
        space = SPACES[name]
        sequences = {
            space.ops(random.Random(derive_seed(name, "spread", i)))
            for i in range(100)}
        assert len(sequences) >= 85, (
            f"{name}: only {len(sequences)} distinct sequences "
            f"from 100 seeds")

    def test_malformed_ops_rejected(self):
        with pytest.raises(ValueError):
            ops_from_json([[1, 2]])
        with pytest.raises(ValueError):
            ops_from_json([["flip", "not-an-int"]])
        with pytest.raises(ValueError):
            ops_from_json([[]])


class TestDdmin:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=24),
           st.sets(st.integers(min_value=0, max_value=9),
                   min_size=1, max_size=3))
    def test_one_minimal_and_replaying(self, items, targets):
        """The minimized list still satisfies the predicate and is
        1-minimal: dropping any single element breaks it."""
        targets = {t for t in targets if t in items} or {items[0]}

        def replays(candidate):
            return targets <= set(candidate)

        minimal = ddmin(items, replays, max_evals=1024)
        assert replays(minimal)
        assert len(minimal) <= len(items)
        for index in range(len(minimal)):
            assert not replays(minimal[:index] + minimal[index + 1:])

    def test_strictly_shorter_when_noise_present(self):
        """Padding around a single culprit is always removed."""
        items = [0] * 10 + [7] + [0] * 10
        minimal = ddmin(items, lambda c: 7 in c, max_evals=1024)
        assert minimal == [7]

    def test_respects_eval_budget(self):
        calls = [0]

        def replays(candidate):
            calls[0] += 1
            return 7 in candidate

        ddmin([0] * 30 + [7], replays, max_evals=5)
        assert calls[0] <= 6


class TestShrinkRealCase:
    def test_silent_corruption_minimizes_strictly_shorter(self):
        """A real flat-RTOS silent-corruption case (hostile op buried
        in honest noise) shrinks to a strictly shorter sequence that
        replays the same outcome and reason."""
        from repro.faults.adversary.families import (
            TaskProgramAdversary, run_case)
        family = TaskProgramAdversary(protected=False)
        case = family.generate(derive_seed("shrink-test", 1))
        noise = (("store", 0, 64, 8), ("delay", 1, 2),
                 ("load", 0, 16, 4), ("store", 1, 256, 8))
        case = case.with_ops(noise[:2] + (("kstore", 0, 5),)
                             + noise[2:])
        original = run_case(family, case)
        assert original.outcome == "silent_corruption"

        minimized, evals = shrink_case(family, case)
        assert len(minimized.ops) < len(case.ops)
        assert evals > 0
        record = run_case(family, minimized)
        assert record.outcome == original.outcome
        assert record.reason == original.reason
