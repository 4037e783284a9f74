"""X8 — chosen-input vs known-input attacks, and full-layer theft.

Two extensions of the Section III-C reproduction:

* the paper's attacker manipulates inputs ("selective inclusion or
  exclusion of 4-bit weights ... by providing binary input values as
  masks"); the passive LRA attacker only observes normal traffic.
  Comparing the two quantifies what input control buys.
* scaling from one macro row to a full NN layer (the actual IP-theft
  threat): extract a 8x16 weight matrix and check the stolen model is
  functionally equivalent.
* trace-synthesis throughput: the passive benches are bounded by how
  fast the toggle model can synthesize traces, so the vectorized
  ``query_fresh_many``/``measure_many`` path is parity-checked and
  speedup-gated against the pointwise loop at 10^5 traces, and the
  order-2 masked kernel against the frozen int64 tree path it replaced.
"""

import time

import numpy as np
import pytest

from repro.cim import (CimLayer, CpaAttack, DigitalCimMacro,
                       LayerExtractionAttack, MaskedCimMacro,
                       PowerModel, WeightExtractionAttack, one_hot)
from repro.obs.perf import counting

from conftest import write_table

_results = {}

#: Vectorized-over-pointwise synthesis floor at 10^5 traces.  A
#: same-process ratio of single-threaded work (>= 61x on a 2-vCPU
#: guest), so it is asserted on every machine.
CIM_SYNTHESIS_SPEEDUP_FLOOR = 10.0
_SYNTHESIS_TRACES = 100_000

#: Order-2 masked kernel on the narrow node-major tree over the frozen
#: int64 path below, at the ``cim-attack`` shape (50,000 one-hot rows
#: of 8 leaves), best of 5 interleaved rounds.  A same-process ratio,
#: so asserted on every machine at half the slowest of five runs
#: (5.6x, 5.7x, 5.5x, 4.8x, 5.4x on a 2-vCPU guest).
CIM_NARROW_TREE_SPEEDUP_FLOOR = 2.4
_CIM_ATTACK_WEIGHTS = [0, 3, 7, 15, 15, 0, 7, 3]
_CIM_ATTACK_TRACES = 50_000


def _int64_tree_activity(products):
    """Frozen baseline: the int64 from-reset tree kernel that the
    node-major buffer of ``repro.cim.adder_tree`` replaced.  Every level
    allocates a new uint64 array, and odd levels concatenate a zero
    pad column."""
    current = products.astype(np.uint64)
    activity = np.bitwise_count(current).sum(axis=1).astype(np.int64)
    while current.shape[1] > 1:
        if current.shape[1] % 2:
            current = np.concatenate(
                [current, np.zeros((current.shape[0], 1),
                                   dtype=current.dtype)], axis=1)
        current = current[:, 0::2] + current[:, 1::2]
        activity += np.bitwise_count(current).sum(axis=1).astype(np.int64)
    return current[:, 0].astype(np.int64), activity


def _int64_masked_toggles(macro, masks):
    """Frozen baseline: the int64 masked share path (stacked shares, an
    int64 ``products`` array, :func:`_int64_tree_activity`), drawing
    from ``macro``'s generator exactly as the current kernel does."""
    traces, length = masks.shape
    weights = np.asarray(macro.weights, dtype=np.int64)
    fresh = macro._rng.integers(
        macro.SHARE_MODULUS, size=(traces, macro.order, length))
    remaining = (weights - fresh.sum(axis=1)) % macro.SHARE_MODULUS
    shares = np.concatenate([fresh, remaining[:, None, :]], axis=1)
    products = masks[:, None, :] * shares
    _, activity = _int64_tree_activity(
        products.reshape(traces * (macro.order + 1), length))
    return (activity.reshape(traces, macro.order + 1).sum(axis=1)
            + (macro.tree.depth + 1))


def _time_narrow_tree():
    """Best-of-5 interleaved times of the frozen int64 path and the
    current order-2 masked kernel on one-hot rows (neither ticks
    ``cim.traces_vectorized``); asserts bit-identical toggles and
    generator states."""
    masks = np.tile(np.asarray(one_hot(len(_CIM_ATTACK_WEIGHTS), 3),
                               dtype=np.int64), (_CIM_ATTACK_TRACES, 1))

    def frozen(macro):
        return _int64_masked_toggles(macro, masks)

    def narrow(macro):
        out = np.empty(_CIM_ATTACK_TRACES, dtype=np.int64)
        macro._fresh_toggles_batch(masks, out)
        return out

    best = {frozen: float("inf"), narrow: float("inf")}
    outputs = {}
    for _ in range(5):
        for path in (frozen, narrow):
            macro = MaskedCimMacro(list(_CIM_ATTACK_WEIGHTS), seed=5,
                                   order=2)
            start = time.perf_counter()
            toggles = path(macro)
            best[path] = min(best[path], time.perf_counter() - start)
            outputs[path] = (toggles, macro._rng.bit_generator.state)
    assert np.array_equal(outputs[frozen][0], outputs[narrow][0])
    assert outputs[frozen][1] == outputs[narrow][1]
    return best[frozen], best[narrow]


def _weights(seed=31):
    rng = np.random.default_rng(seed)
    weights = [int(w) for w in rng.integers(0, 16, 16)]
    weights[0], weights[1] = 0, 15
    return weights


def test_chosen_input_attack(benchmark):
    weights = _weights()
    attack = WeightExtractionAttack(DigitalCimMacro(weights),
                                    PowerModel(0.0), repetitions=1)
    result = benchmark.pedantic(lambda: attack.run(), rounds=1,
                                iterations=1)
    _results["chosen"] = ("exact values",
                          result.accuracy(weights),
                          result.queries_used)
    assert result.accuracy(weights) == 1.0


def test_passive_lra_attack(benchmark):
    weights = _weights()
    attack = CpaAttack(DigitalCimMacro(weights), PowerModel(0.0),
                       seed=1)
    result = benchmark.pedantic(lambda: attack.run(traces=4000),
                                rounds=1, iterations=1)
    _results["passive"] = ("HW classes only",
                           result.hw_accuracy(weights),
                           result.traces_used)
    assert 0.6 <= result.hw_accuracy(weights) < 1.0


def test_layer_extraction(benchmark):
    rng = np.random.default_rng(33)
    matrix = [[int(w) for w in rng.integers(0, 16, 16)]
              for _ in range(8)]
    for row in matrix:
        row[0], row[1] = 0, 15
    layer = CimLayer(matrix)
    attack = LayerExtractionAttack(layer, PowerModel(0.0))
    result = benchmark.pedantic(lambda: attack.run(), rounds=1,
                                iterations=1)
    _results["layer"] = ("8x16 weight matrix",
                         result.accuracy(matrix),
                         result.total_queries)
    assert result.accuracy(matrix) == 1.0
    assert result.functionally_equivalent(layer)


def test_vectorized_trace_synthesis(benchmark, report_dir):
    """Vectorized trace synthesis vs the pointwise loop at 10^5 traces:
    bit-identical samples (toggle counts and noise stream), the
    ``cim.traces_vectorized`` counter attributing the lanes, and the
    documented amortized speedup floor."""
    rng = np.random.default_rng(7)
    length = 16
    weights = [int(w) for w in rng.integers(0, 16, length)]
    masks = rng.integers(0, 2, size=(_SYNTHESIS_TRACES, length))

    def pointwise(make_macro, rows):
        macro = make_macro()
        power = PowerModel(noise_sigma=0.8, seed=3)
        return np.array([power.measure(
            macro.query_fresh([int(b) for b in row])) for row in rows])

    def vectorized(make_macro, rows):
        macro = make_macro()
        power = PowerModel(noise_sigma=0.8, seed=3)
        return power.measure_many(macro.query_fresh_many(rows))

    plain = lambda: DigitalCimMacro(list(weights))
    masked = lambda: MaskedCimMacro(list(weights), seed=5)

    # Pointwise pass doubles as the parity reference; the timed
    # vectorized pass is best-of-3 fresh macros (identical streams).
    start = time.perf_counter()
    scalar_samples = pointwise(plain, masks)
    scalar_time = time.perf_counter() - start
    batch_time = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch_samples = vectorized(plain, masks)
        batch_time = min(batch_time, time.perf_counter() - start)
    assert np.array_equal(scalar_samples, batch_samples)

    # Masked macro (order-1): same contract on the share-pass path, at
    # a fifth of the traces to bound the pointwise reference cost.
    masked_rows = masks[:_SYNTHESIS_TRACES // 5]
    start = time.perf_counter()
    masked_scalar = pointwise(masked, masked_rows)
    masked_scalar_time = time.perf_counter() - start
    start = time.perf_counter()
    with counting() as window:
        masked_batch = vectorized(masked, masked_rows)
    masked_batch_time = time.perf_counter() - start
    assert np.array_equal(masked_scalar, masked_batch)
    assert window.delta()["cim.traces_vectorized"] == \
        len(masked_rows) - 1

    int64_time, narrow_time = _time_narrow_tree()

    def row(name, traces, baseline, batch, floor):
        return [name, traces, f"{baseline / traces * 1e6:.2f} us",
                f"{batch / traces * 1e6:.3f} us",
                f"{baseline / batch:.1f}x", f">= {floor:.1f}x"]

    rows = [
        row("plain macro vs pointwise", _SYNTHESIS_TRACES, scalar_time,
            batch_time, CIM_SYNTHESIS_SPEEDUP_FLOOR),
        row("masked macro (order 1) vs pointwise", len(masked_rows),
            masked_scalar_time, masked_batch_time,
            CIM_SYNTHESIS_SPEEDUP_FLOOR),
        row("masked kernel (order 2) vs int64 tree", _CIM_ATTACK_TRACES,
            int64_time, narrow_time, CIM_NARROW_TREE_SPEEDUP_FLOOR),
    ]
    write_table(report_dir, "cim_trace_synthesis",
                "Vectorized trace synthesis vs its baselines "
                "(bit-identical samples)",
                ["macro", "traces", "baseline/trace",
                 "vectorized/trace", "speedup", "floor"], rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert scalar_time / batch_time >= CIM_SYNTHESIS_SPEEDUP_FLOOR, rows[0]
    assert masked_scalar_time / masked_batch_time >= \
        CIM_SYNTHESIS_SPEEDUP_FLOOR, rows[1]
    assert int64_time / narrow_time >= CIM_NARROW_TREE_SPEEDUP_FLOOR, \
        rows[2]


def test_report_passive(benchmark, report_dir):
    def build():
        rows = []
        for key, label in (("chosen", "chosen-input (paper's attack)"),
                           ("passive", "known-input LRA (passive)"),
                           ("layer", "full-layer chosen-input")):
            what, accuracy, cost = _results[key]
            rows.append([label, what, f"{accuracy:.0%}", cost])
        write_table(report_dir, "cim_passive",
                    "Attacker capability ablation: what input control "
                    "buys",
                    ["attack", "recovers", "accuracy",
                     "queries/traces"], rows)
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(rows) == 3
    # The ablation claim: chosen input strictly dominates passive.
    assert _results["chosen"][1] > _results["passive"][1] or (
        _results["chosen"][1] == 1.0)
