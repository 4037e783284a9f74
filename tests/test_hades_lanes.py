"""Lane-chunk fold vs the scalar cost path.

The exhaustive fold prices each top-level chunk (every design that
differs only in the innermost slot) with one call of the unchanged
cost model over lane columns.  These tests pin that every design it
yields is exactly what :meth:`Template.evaluate` predicts for the same
configuration, value for value and type for type, and that a cost
model the columns cannot express fails loudly instead of being priced
wrong.
"""

import pytest

from repro.hades import (Configuration, DesignContext,
                         ExhaustiveExplorer, InfeasibleConfiguration,
                         Metrics, OptimizationGoal, Template,
                         enumerate_designs)
from repro.hades.library import TABLE_I_ROWS, kyber_cca
from repro.hades.template import _slot_space, enumerate_chunks

SMALL_ROWS = [row for row in TABLE_I_ROWS if row[2] <= 50_000]
ORDERS = (0, 1, 2)
FIELDS = ("area_kge", "latency_cc", "randomness_bits")


def _assert_scalar_equal(template, context, designs):
    for design in designs:
        expected = template.evaluate(design.configuration, context)
        for name in FIELDS:
            got, want = getattr(design.metrics, name), \
                getattr(expected, name)
            assert got == want and type(got) is type(want), \
                (design.configuration.describe(), name, got, want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name,factory,count", SMALL_ROWS,
                         ids=[row[0] for row in SMALL_ROWS])
def test_every_design_matches_scalar_evaluate(name, factory, count,
                                              order):
    template = factory()
    context = DesignContext(masking_order=order)
    designs = list(enumerate_designs(template, context))
    assert designs
    _assert_scalar_equal(template, context, designs)


@pytest.mark.parametrize("order", ORDERS)
def test_kyber_cca_sample_matches_scalar_evaluate(order):
    """Every 1009th rank of the 1,148,364, as the fold prices it."""
    template = kyber_cca()
    context = DesignContext(masking_order=order)
    sample = [(chunk.rank(lane), chunk.design(lane))
              for chunk in enumerate_chunks(template, context)
              for lane, position in enumerate(chunk.positions)
              if (chunk.base + position) % 1009 == 0]
    assert [rank for rank, _ in sample] == \
        list(range(0, template.count_configurations(), 1009))
    _assert_scalar_equal(template, context,
                         [design for _, design in sample])


def _chunk_ordinal(template, context):
    """``ordinal(base)``: the place of the chunk at rank ``base`` in the
    product the fold walks, every parameter value then every outer
    slot's feasible positions, in digit significance order.  An
    infeasible chunk has a place too."""
    index = template.design_index
    digits = [(stride, len(values), range(len(values)))
              for _, values, stride in index.digit_params]
    for slot in index.digit_slots[:-1]:
        _, offsets, _, stride = slot
        digits.append((stride, offsets[-1], _slot_space(slot, context)[0]))

    def ordinal(base):
        place = 0
        for stride, radix, feasible in digits:
            place = place * len(feasible) + \
                feasible.index(base // stride % radix)
        return place

    return ordinal


@pytest.mark.parametrize("name,factory,count", TABLE_I_ROWS,
                         ids=[row[0] for row in TABLE_I_ROWS])
def test_chunk_shards_union_is_serial_stream(name, factory, count):
    """``shard=(k, 3)`` streams whole chunks k, k+3, ... (an infeasible
    chunk counts): the shards partition the serial chunks, ranks rise
    within each shard, every chunk of shard k has a chunk ordinal of
    k mod 3, and every chunk of a shard holds the one innermost-slot
    position list, never a window."""
    template = factory()
    context = DesignContext(masking_order=1)
    ordinal = _chunk_ordinal(template, context)
    serial = list(enumerate_chunks(template, context))
    positions = serial[0].positions
    assert list(positions) == sorted(set(positions))
    bases = [chunk.base for chunk in serial]
    assert bases == sorted(set(bases))
    assert bases[-1] + positions[-1] < template.count_configurations()
    union = []
    for k in range(3):
        chunks = list(enumerate_chunks(template, context, shard=(k, 3)))
        union += [chunk.base for chunk in chunks]
        assert [chunk.base for chunk in chunks] == \
            sorted(chunk.base for chunk in chunks)
        assert all(ordinal(chunk.base) % 3 == k for chunk in chunks)
        assert len({id(chunk.positions) for chunk in chunks}) <= 1
        assert all(chunk.positions == positions for chunk in chunks)
    assert sorted(union) == bases
    with pytest.raises(ValueError):
        list(enumerate_chunks(template, context, shard=(0, 0)))


def _leaf(name, areas):
    """A slotless template with one design per area in ``areas``."""
    return Template(name, lambda p, s, c: Metrics(p["area"], 2.0),
                    parameters={"area": tuple(areas)})


def test_branch_on_sub_metric_raises_type_error():
    def cost(params, subs, context):
        if subs["s"].area_kge > 1.5:
            return Metrics(1.0, 1.0)
        return Metrics(2.0, 2.0)

    leaf = _leaf("leaf", (1, 2, 3))
    parent = Template("parent", cost, slots={"s": (leaf,)})
    # A valid scalar cost model: each configuration prices fine alone.
    for sub in enumerate_designs(leaf, DesignContext()):
        parent.evaluate(Configuration("parent", (),
                                      (("s", sub.configuration),)),
                        DesignContext())
    with pytest.raises(TypeError):
        list(enumerate_designs(parent, DesignContext()))
    with pytest.raises(TypeError):
        ExhaustiveExplorer(parent).run(OptimizationGoal.AREA)


@pytest.mark.parametrize("area", [
    lambda sub: sub.area_kge - 1.5,
    lambda sub: 2.5 - sub.area_kge,
    lambda sub: sub.area_kge * -1 + 2.5,
    lambda sub: -2 * sub.area_kge + 5.5,
    lambda sub: -sub.area_kge + 2.5,
    lambda sub: sub.area_kge / -2 + 1.25,
    lambda sub: 3 / -sub.area_kge + 2,
], ids=["sub", "rsub", "mul", "rmul", "neg", "div", "rdiv"])
def test_negative_metric_in_one_lane_raises_value_error(area):
    """Exactly one of the three lanes goes below zero.  Pricing the
    chunk must reject it, before any lane is materialised."""
    parent = Template(
        "parent", lambda p, s, c: Metrics(area(s["s"]), 1.0),
        slots={"s": (_leaf("leaf", (1, 2, 3)),)})
    assert sum(area(Metrics(a, 2.0)) < 0 for a in (1, 2, 3)) == 1
    with pytest.raises(ValueError):
        list(enumerate_chunks(parent, DesignContext()))
    with pytest.raises(ValueError):
        list(enumerate_designs(parent, DesignContext()))
    with pytest.raises(ValueError):
        ExhaustiveExplorer(parent).run(OptimizationGoal.AREA)


def test_parameter_infeasibility_skips_exactly_its_chunk():
    def cost(params, subs, context):
        if params["a"] == 2:
            raise InfeasibleConfiguration("a=2 cannot be built")
        sub = subs["s"]
        return Metrics(sub.area_kge * params["a"], sub.latency_cc,
                       sub.randomness_bits)

    parent = Template("parent", cost, parameters={"a": (1, 2, 3)},
                      slots={"s": (_leaf("leaf", (1, 2, 3, 4)),)})
    chunks = list(enumerate_chunks(parent, DesignContext()))
    assert [[chunk.rank(lane) for lane in range(len(chunk.positions))]
            for chunk in chunks] == [[0, 1, 2, 3], [8, 9, 10, 11]]
    _assert_scalar_equal(parent, DesignContext(),
                         list(enumerate_designs(parent, DesignContext())))
    result = ExhaustiveExplorer(parent).run(OptimizationGoal.AREA)
    assert (result.explored, result.feasible) == (12, 8)


def test_column_operators_match_scalar_arithmetic():
    """Every operator a cost may apply to a lane column, on either
    side, including augmented assignment (never list concatenation)."""
    def cost(params, subs, context):
        sub = subs["s"]
        area = sub.area_kge
        area += sub.area_kge
        area *= 2
        area = 10 + area / 4 + (sub.latency_cc + 1) / 3 + 0.5
        latency = 3 * sub.latency_cc / sub.area_kge + sub.latency_cc / 7
        return Metrics(area, latency, sub.randomness_bits * 2 + 1)

    leaf = Template("leaf", lambda p, s, c: Metrics(p["x"], p["x"] * 3,
                                                    p["x"] // 2),
                    parameters={"x": (1, 2, 3, 4, 5)})
    parent = Template("parent", cost, slots={"s": (leaf,)})
    designs = list(enumerate_designs(parent, DesignContext()))
    assert len(designs) == 5
    _assert_scalar_equal(parent, DesignContext(), designs)
