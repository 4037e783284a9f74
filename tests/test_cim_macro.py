"""Tests for the CIM macro, adder tree, power model and k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim import (AdderTree, DigitalCimMacro, KMeans, PowerModel,
                       hamming_distance, hamming_weight, one_hot,
                       subset_mask)


class TestHamming:
    @pytest.mark.parametrize("value,expected", [(0, 0), (1, 1), (7, 3),
                                                (15, 4), (255, 8)])
    def test_weight(self, value, expected):
        assert hamming_weight(value) == expected

    def test_distance(self):
        assert hamming_distance(0b1010, 0b0101) == 4
        assert hamming_distance(7, 7) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def test_distance_is_weight_of_xor(self, a, b):
        assert hamming_distance(a, b) == hamming_weight(a ^ b)


class TestAdderTree:
    def test_sums_correctly(self):
        tree = AdderTree(8)
        total, _ = tree.evaluate([1, 2, 3, 4, 5, 6, 7, 8])
        assert total == 36

    def test_odd_leaf_count(self):
        tree = AdderTree(5)
        total, _ = tree.evaluate([1, 1, 1, 1, 1])
        assert total == 5

    def test_single_leaf(self):
        tree = AdderTree(1)
        total, activity = tree.evaluate([9])
        assert total == 9
        assert activity == hamming_weight(9)

    def test_first_activity_is_sum_of_node_weights(self):
        tree = AdderTree(4)
        _, activity = tree.evaluate([1, 0, 0, 0])
        # Nodes: leaf=1, level1=1, root=1 -> 3 single-bit flips.
        assert activity == 3

    def test_no_change_no_activity(self):
        tree = AdderTree(4)
        tree.evaluate([3, 1, 4, 1])
        _, activity = tree.evaluate([3, 1, 4, 1])
        assert activity == 0

    def test_reset_restores_zero_state(self):
        tree = AdderTree(4)
        tree.evaluate([15, 15, 15, 15])
        tree.reset()
        _, activity = tree.evaluate([0, 0, 0, 0])
        assert activity == 0

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            AdderTree(4).evaluate([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AdderTree(0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=33))
    def test_sum_property(self, products):
        tree = AdderTree(len(products))
        total, activity = tree.evaluate(products)
        assert total == sum(products)
        assert activity >= hamming_weight(total)


class TestMacro:
    def test_mac_computes_dot_product(self):
        macro = DigitalCimMacro([3, 5, 7, 9])
        value, _ = macro.operate([1, 0, 1, 0])
        assert value == 10


    def test_non_accumulate_replaces(self):
        macro = DigitalCimMacro([3, 5])
        macro.operate([1, 0])
        value, _ = macro.operate([0, 1])
        assert value == 5

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            DigitalCimMacro([16])

    def test_rejects_non_binary_input(self):
        with pytest.raises(ValueError):
            DigitalCimMacro([1, 2]).operate([1, 2])

    def test_rejects_wrong_input_length(self):
        with pytest.raises(ValueError):
            DigitalCimMacro([1, 2]).operate([1])

    def test_single_weight_activity_proportional_to_hw(self):
        """The core leakage the attack exploits (paper Fig. 1)."""
        weights = list(range(16))
        macro = DigitalCimMacro(weights)
        toggles = [macro.query_fresh(one_hot(16, i)) for i in range(16)]
        depth_plus = macro.tree.depth + 2   # tree path + MAC register
        for weight, observed in zip(weights, toggles):
            assert observed == hamming_weight(weight) * depth_plus

    def test_query_fresh_is_stateless(self):
        macro = DigitalCimMacro([7, 8, 9, 10])
        first = macro.query_fresh([1, 1, 0, 0])
        second = macro.query_fresh([1, 1, 0, 0])
        assert first == second

    def test_mask_helpers(self):
        assert one_hot(4, 2) == [0, 0, 1, 0]
        assert subset_mask(4, [0, 3]) == [1, 0, 0, 1]


class TestPowerModel:
    def test_noise_free_deterministic(self):
        model = PowerModel(0.0)
        assert model.measure(10) == model.measure(10)

    def test_power_increases_with_toggles(self):
        model = PowerModel(0.0)
        assert model.measure(20) > model.measure(10)

    def test_noise_changes_samples(self):
        model = PowerModel(1.0, seed=1)
        samples = [model.measure(10) for _ in range(10)]
        assert len(set(samples)) > 1

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(-1.0)

    def test_trace_shape(self):
        macro = DigitalCimMacro([1, 2, 3, 4])
        trace = PowerModel(0.0).trace(macro, [1, 0, 0, 0],
                                      repetitions=7)
        assert trace.shape == (7,)
        assert np.all(trace == trace[0])


class TestKMeans:
    def test_separates_clear_clusters(self):
        data = [0.0, 0.1, 5.0, 5.1, 10.0, 10.2]
        km = KMeans(3).fit(data)
        labels = km.labels_
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] == labels[5]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_2d_data(self):
        rng = np.random.default_rng(0)
        a = rng.normal((0, 0), 0.1, (20, 2))
        b = rng.normal((5, 5), 0.1, (20, 2))
        km = KMeans(2).fit(np.vstack([a, b]))
        assert len(set(km.labels_[:20])) == 1
        assert km.labels_[0] != km.labels_[-1]

    def test_fewer_samples_than_clusters_rejected(self):
        with pytest.raises(ValueError):
            KMeans(5).fit([1.0, 2.0])

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KMeans(0)

    def test_identical_points(self):
        km = KMeans(2).fit([3.0, 3.0, 3.0])
        assert km.inertia_ == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=4,
                    max_size=30))
    def test_inertia_non_negative(self, data):
        km = KMeans(2).fit(data)
        assert km.inertia_ >= 0
