"""Sanity tests for the cost models of the non-AES library templates.

Table I pins their configuration counts; these tests pin the *physics*
of the predictions: serial architectures trade latency for area,
masking costs randomness proportional to non-linear gate counts, nested
adders propagate their metrics upward.
"""

import pytest

from repro.hades import (DesignContext, ExhaustiveExplorer,
                         OptimizationGoal, enumerate_designs)
from repro.hades.library import (adder_mod_q, chacha20, keccak,
                                 kyber_cca, kyber_cpa, polymul,
                                 sparse_polymul)

G = OptimizationGoal


def _best(template, goal, order=0):
    return ExhaustiveExplorer(
        template, DesignContext(masking_order=order)).run(goal).best


class TestKeccakModel:
    def test_serial_is_smaller_and_slower(self):
        area_best = _best(keccak(), G.AREA)
        latency_best = _best(keccak(), G.LATENCY)
        assert dict(area_best.configuration.slots)["core"].template == \
            "keccak_slice_serial"
        assert dict(latency_best.configuration.slots)["core"].template == \
            "keccak_full_width"
        assert area_best.metrics.area_kge < latency_best.metrics.area_kge
        assert area_best.metrics.latency_cc > \
            latency_best.metrics.latency_cc

    def test_masked_randomness_tracks_chi_gates(self):
        """Chi is 1600 ANDs/round: a full-width unroll-1 design needs
        exactly 1600 fresh bits per cycle at d=1."""
        designs = list(enumerate_designs(keccak(),
                                         DesignContext(masking_order=1)))
        unroll_1 = next(
            d for d in designs
            if dict(d.configuration.slots)["core"].template ==
            "keccak_full_width"
            and dict(d.configuration.slots)["core"].param("unroll") == 1)
        assert unroll_1.metrics.randomness_bits == 1600

    def test_unrolling_trades_area_for_throughput_not_latency(self):
        designs = list(enumerate_designs(keccak(), DesignContext()))
        full = {dict(d.configuration.slots)["core"].param("unroll"): d.metrics
                for d in designs
                if dict(d.configuration.slots)["core"].template ==
                "keccak_full_width"}
        assert full[24].area_kge > 10 * full[1].area_kge


class TestChaChaModel:
    def test_adder_choice_propagates(self):
        """Two designs differing only in the nested adder must differ
        in cost exactly through the adder's contribution."""
        designs = list(enumerate_designs(chacha20(), DesignContext()))
        by_adder = {}
        for design in designs:
            params = dict(design.configuration.params)
            if (params["qr_parallelism"], params["double_round_unroll"],
                    params["pipeline"]) == (1, 1, 0):
                by_adder[dict(design.configuration.slots)[
                    "adder32"].template] = design.metrics
        assert by_adder["ripple_carry"].area_kge < \
            by_adder["parallel_prefix"].area_kge
        assert by_adder["ripple_carry"].latency_cc > \
            by_adder["parallel_prefix"].latency_cc

    def test_parallelism_increases_area(self):
        area_best = _best(chacha20(), G.AREA)
        latency_best = _best(chacha20(), G.LATENCY)
        assert area_best.configuration.param("qr_parallelism") == 1
        assert latency_best.metrics.area_kge > \
            area_best.metrics.area_kge


class TestPolymulModels:
    def test_sparse_parallelism_tradeoff(self):
        area_best = _best(sparse_polymul(), G.AREA)
        latency_best = _best(sparse_polymul(), G.LATENCY)
        assert area_best.configuration.param("coeff_parallelism") == 1
        assert latency_best.configuration.param("coeff_parallelism") == 8

    def test_dense_nests_two_adders(self):
        design = _best(polymul(), G.AREA)
        assert dict(design.configuration.slots)["mod_adder"].template == \
            "adder_mod_q"
        accumulator = dict(design.configuration.slots)["accumulator"]
        assert accumulator.template in (
            "ripple_carry", "carry_lookahead", "carry_skip",
            "carry_select", "carry_increment", "parallel_prefix",
            "carry_save_hybrid", "digit_serial")

    def test_masked_polymul_needs_randomness(self):
        masked = _best(polymul(), G.AREA, order=1)
        assert masked.metrics.randomness_bits > 0


class TestKyberModels:
    def test_cpa_cost_dominated_by_multiplier(self):
        design = _best(kyber_cpa(), G.AREA)
        multiplier = dict(design.configuration.slots)["polymul"]
        assert multiplier.template == "polymul"
        assert design.metrics.latency_cc > 9 * 16  # k^2 products

    def test_cca_more_expensive_than_cpa(self):
        """FO decapsulation re-encrypts: CCA latency > CPA latency for
        comparable optimisation goals."""
        cpa = _best(kyber_cpa(), G.LATENCY)
        cca = _best(kyber_cca(), G.LATENCY)
        assert cca.metrics.latency_cc > cpa.metrics.latency_cc

    def test_cca_local_choices_matter(self):
        by_compare = {}
        for design in enumerate_designs(kyber_cca(), DesignContext()):
            params = dict(design.configuration.params)
            if params["sampler"] == "lut" and \
                    params["control"] == "fsm" and \
                    params["compare"] not in by_compare:
                by_compare[params["compare"]] = design.metrics
            if {"serial", "tree"} <= set(by_compare):
                break
        assert by_compare["serial"].area_kge < \
            by_compare["tree"].area_kge
        assert by_compare["serial"].latency_cc > \
            by_compare["tree"].latency_cc


class TestAdderModQModel:
    def test_reduction_strategies_ordered(self):
        designs = {
            (c.configuration.param("core"),
             c.configuration.param("reduction")): c.metrics
            for c in enumerate_designs(adder_mod_q(), DesignContext())}
        # Lazy reduction is the cheapest add-on; LUT the largest area.
        ks_lazy = designs[("kogge_stone", "lazy")]
        ks_lut = designs[("kogge_stone", "lut")]
        ks_barrett = designs[("kogge_stone", "barrett")]
        assert ks_lazy.area_kge < ks_lut.area_kge
        assert ks_lazy.latency_cc < ks_barrett.latency_cc

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_arbitrary_order_masking_works(self, order):
        """The HADES headline: any template masks at any order."""
        result = ExhaustiveExplorer(
            adder_mod_q(),
            DesignContext(masking_order=order)).run(G.RANDOMNESS)
        assert result.best.metrics.randomness_bits > 0
        assert result.feasible == 42
