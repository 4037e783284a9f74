"""Tests for the HADES power/energy extension (the paper's future-work
item implemented)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hades import (DesignContext, HardwarePowerModel, Metrics,
                         OptimizationGoal, ExhaustiveExplorer,
                         aes_activity_factor, enumerate_designs,
                         rank_by_energy)
from repro.hades.library import aes256


class TestPowerModel:
    def test_dynamic_scales_with_activity(self):
        model = HardwarePowerModel()
        metrics = Metrics(10.0, 100.0)
        low = model.estimate(metrics, 0.1)
        high = model.estimate(metrics, 0.5)
        assert high.dynamic_mw == pytest.approx(5 * low.dynamic_mw)
        assert high.leakage_mw == low.leakage_mw

    def test_leakage_scales_with_area(self):
        model = HardwarePowerModel()
        small = model.estimate(Metrics(1.0, 10.0), 0.2)
        large = model.estimate(Metrics(10.0, 10.0), 0.2)
        assert large.leakage_mw == pytest.approx(10 * small.leakage_mw)

    def test_energy_scales_with_latency(self):
        model = HardwarePowerModel()
        fast = model.estimate(Metrics(10.0, 10.0), 0.2)
        slow = model.estimate(Metrics(10.0, 100.0), 0.2)
        assert slow.energy_per_op_nj == \
            pytest.approx(10 * fast.energy_per_op_nj)

    def test_total(self):
        estimate = HardwarePowerModel().estimate(Metrics(5.0, 10.0),
                                                 0.3)
        assert estimate.total_mw == pytest.approx(
            estimate.dynamic_mw + estimate.leakage_mw)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwarePowerModel().estimate(Metrics(1, 1), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 1000), st.floats(1, 10000),
           st.floats(0.01, 1.0))
    def test_estimates_positive(self, area, latency, activity):
        estimate = HardwarePowerModel().estimate(
            Metrics(area, latency), activity)
        assert estimate.dynamic_mw > 0
        assert estimate.leakage_mw > 0
        assert estimate.energy_per_op_nj > 0


class TestAesEnergyRanking:
    @pytest.fixture(scope="class")
    def designs(self):
        return list(enumerate_designs(aes256(),
                                      DesignContext(masking_order=0)))

    def test_activity_factors_by_architecture(self, designs):
        factors = {aes_activity_factor(d.configuration)
                   for d in designs}
        assert len(factors) == 4      # serial / 32 / round / unrolled

    def test_ranking_sorted(self, designs):
        ranked = rank_by_energy(designs, aes_activity_factor)
        energies = [estimate.energy_per_op_nj
                    for _, estimate in ranked]
        assert energies == sorted(energies)
        assert len(ranked) == len(designs)

    def test_energy_optimum_differs_from_area_optimum(self, designs):
        """The point of the extension: the energy winner is NOT just
        the area winner (leakage x long latency punishes the serial
        design) nor necessarily the ALP winner."""
        ranked = rank_by_energy(designs, aes_activity_factor)
        energy_best = ranked[0][0]
        area_best = min(designs, key=lambda d: d.metrics.area_kge)
        assert energy_best.configuration != area_best.configuration

    def test_energy_optimum_is_reasonable(self, designs):
        """The winner should be a wide datapath (short latency) —
        energy/op favours finishing fast at moderate area."""
        ranked = rank_by_energy(designs, aes_activity_factor)
        assert ranked[0][0].configuration.param("datapath") == 128


class TestMaskedEnergy:
    def test_masking_multiplies_energy(self):
        """Supports the catalog's energy_factor estimate for masking."""
        unmasked = ExhaustiveExplorer(
            aes256(), DesignContext()).run(
            OptimizationGoal.AREA_LATENCY).best
        masked = ExhaustiveExplorer(
            aes256(), DesignContext(masking_order=1)).run(
            OptimizationGoal.AREA_LATENCY).best
        model = HardwarePowerModel()
        energy_unmasked = model.estimate(
            unmasked.metrics,
            aes_activity_factor(unmasked.configuration))
        energy_masked = model.estimate(
            masked.metrics, aes_activity_factor(masked.configuration))
        assert energy_masked.energy_per_op_nj > \
            1.5 * energy_unmasked.energy_per_op_nj
