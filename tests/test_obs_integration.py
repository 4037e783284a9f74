"""Integration: the six instrumented subsystems emit the expected
spans and span attrs when the global telemetry facade is enabled, and
remain silent when it is disabled (the default)."""

import numpy as np
import pytest

from repro.obs import TELEMETRY, counting, summarize

from helpers import reset_telemetry


@pytest.fixture
def enabled_telemetry():
    """Enable and reset the global facade; restore afterwards."""
    was_enabled = TELEMETRY.enabled
    TELEMETRY.enabled = True
    reset_telemetry()
    yield TELEMETRY
    reset_telemetry()
    TELEMETRY.enabled = was_enabled


def _span_names():
    return {record["name"] for record in TELEMETRY.tracer.snapshot()}


def _span(name: str) -> dict:
    """The first finished span called ``name``."""
    return next(record for record in TELEMETRY.tracer.snapshot()
                if record["name"] == name)


def test_hades_exhaustive_emits_per_goal_spans(enabled_telemetry):
    from repro.hades import (DesignContext, ExhaustiveExplorer,
                             OptimizationGoal)
    from repro.hades.library import keccak

    explorer = ExhaustiveExplorer(keccak(),
                                  DesignContext(masking_order=1))
    results = [explorer.run(goal) for goal in (OptimizationGoal.AREA,
                                                OptimizationGoal.LATENCY)]
    runs = [r for r in TELEMETRY.tracer.snapshot()
            if r["name"] == "hades.exhaustive.run"]
    assert [r["attrs"]["goal"] for r in runs] == ["AREA", "LATENCY"]
    for run, result in zip(runs, results):
        assert run["attrs"]["feasible"] == result.feasible == \
            result.evaluations
        assert run["duration_s"] > 0


def test_hades_local_search_emits_descent_spans(enabled_telemetry):
    from repro.hades import (DesignContext, LocalSearchExplorer,
                             OptimizationGoal)
    from repro.hades.library import keccak

    result = LocalSearchExplorer(
        keccak(), DesignContext(masking_order=1)).run(
        OptimizationGoal.AREA, starts=3)
    names = _span_names()
    assert "hades.local_search.run" in names
    assert "hades.local_search.descent" in names
    assert _span("hades.local_search.run")["attrs"]["evaluations"] == \
        result.evaluations


def test_cim_attack_emits_phase_spans_and_query_attrs(
        enabled_telemetry):
    from repro.cim import (DigitalCimMacro, PowerModel,
                           WeightExtractionAttack)

    rng = np.random.default_rng(5)
    weights = [int(w) for w in rng.integers(0, 16, 16)]
    attack = WeightExtractionAttack(DigitalCimMacro(weights),
                                    PowerModel(0.0), repetitions=1)
    result = attack.run()
    names = _span_names()
    assert {"cim.attack.run", "cim.phase1",
            "cim.phase1.trace_generation", "cim.phase1.clustering",
            "cim.phase2.combination"} <= names
    attrs = _span("cim.attack.run")["attrs"]
    assert attrs["queries_used"] == attack.queries_used == \
        result.queries_used > 0
    assert _span("cim.phase1.trace_generation")["attrs"][
        "repetitions"] == 1
    assert attrs["unresolved"] == len(result.unresolved)


def test_rtos_kernel_run_span_matches_stats(enabled_telemetry):
    from repro.rtos.kernel import Kernel

    kernel = Kernel()

    def spin(context):
        for _ in range(3):
            yield

    kernel.create_task("a", 2, spin)
    kernel.create_task("b", 1, spin)
    with counting() as window:
        stats = kernel.run(max_ticks=50)
    assert window.delta()["rtos.context_switches"] == \
        stats.context_switches
    attrs = _span("rtos.kernel.run")["attrs"]
    assert attrs["ticks"] == stats.ticks
    # Both tasks end before the budget: one decision per tick, plus
    # the one that found nothing left to run.
    assert attrs["scheduler_decisions"] == stats.ticks + 1


def test_rtos_pmp_fault_counter(enabled_telemetry):
    from repro.rtos.kernel import Kernel

    kernel = Kernel(protected=True)

    def spin(context):
        for _ in range(20):
            yield

    victim = kernel.create_task("victim", 1, spin, data_bytes=4096)

    def attacker(context):
        yield
        context.load(victim.data_regions[0].base, 4)   # foreign memory

    kernel.create_task("attacker", 2, attacker)
    stats = kernel.run(max_ticks=50)
    assert stats.faults >= 1
    attrs = _span("rtos.kernel.run")["attrs"]
    assert attrs["pmp_faults"] == attrs["faults"] == stats.faults
    assert attrs["stack_overflows"] == 0


def test_rtos_stack_overflow_attr(enabled_telemetry):
    from repro.rtos.kernel import Kernel

    kernel = Kernel()

    def hungry(context):
        context.push_stack(5000)        # beyond the 4096-byte stack
        yield

    kernel.create_task("hungry", 1, hungry)
    stats = kernel.run(max_ticks=10)
    attrs = _span("rtos.kernel.run")["attrs"]
    assert attrs["stack_overflows"] == attrs["faults"] == \
        stats.faults == 1
    assert attrs["pmp_faults"] == 0


def _spin(ticks):
    def body(context):
        for _ in range(ticks):
            yield
    return body


def _forever(context):
    while True:
        yield


def _sleeper(context):
    from repro.rtos import Delay

    yield Delay(5)
    yield


@pytest.mark.parametrize("tasks, max_ticks", [
    pytest.param([_spin(3), _spin(4)], 50, id="tasks-end-early"),
    pytest.param([_forever], 25, id="budget-runs-out"),
    pytest.param([_sleeper], 50, id="idle-ticks-while-delayed"),
])
def test_rtos_scheduler_decisions_count_picks(enabled_telemetry, tasks,
                                             max_ticks):
    """The ``scheduler_decisions`` attr is the number of times the
    scheduler picked (or found no) task during the run."""
    from repro.rtos.kernel import Kernel

    kernel = Kernel()
    for index, body in enumerate(tasks):
        kernel.create_task(f"t{index}", index + 1, body)
    pick, picks = kernel._pick, []

    def counted():
        picks.append(kernel.tick)
        return pick()

    kernel._pick = counted
    kernel.run(max_ticks=max_ticks)
    assert _span("rtos.kernel.run")["attrs"]["scheduler_decisions"] == \
        len(picks) > 0


def test_tee_boot_and_attest_spans(enabled_telemetry):
    from repro.tee import build_tee

    platform = build_tee(post_quantum=True)
    enclave = platform.sm.create_enclave(b"model-runner")
    platform.sm.attest_enclave(enclave, b"nonce")
    names = _span_names()
    assert {"tee.boot", "tee.boot.measure", "tee.boot.sign",
            "tee.boot.derive_sm_keys", "tee.boot.certify",
            "tee.boot.regenerate_pq_key", "tee.attest",
            "tee.attest.sign"} <= names
    schemes = {r["attrs"]["scheme"]
               for r in TELEMETRY.tracer.snapshot()
               if r["name"] == "tee.attest.sign"}
    assert schemes == {"ed25519", "mldsa"}
    assert summarize(TELEMETRY.tracer.snapshot())[
        "tee.attest.sign"]["count"] == 2


def test_crypto_sign_verify_latency_percentiles(enabled_telemetry):
    from repro.crypto import ed25519
    from repro.crypto.mldsa import ML_DSA_44, MLDSA

    signature = ed25519.sign(bytes(32), b"msg")
    assert ed25519.verify(ed25519.public_key(bytes(32)), b"msg",
                          signature)
    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(bytes(32))
    assert scheme.verify(public, b"msg", scheme.sign(secret, b"msg"))
    summary = summarize(TELEMETRY.tracer.snapshot())
    for name in ("crypto.ed25519.sign", "crypto.ed25519.verify",
                 "crypto.mldsa.sign", "crypto.mldsa.verify"):
        assert summary[name]["count"] >= 1
        assert 0 < summary[name]["p50_s"] <= summary[name]["p99_s"]


def test_mldsa_batch_and_scalar_verify_keep_separate_spans(
        enabled_telemetry):
    """A batch verify is one ``verify_many`` span carrying its batch
    size; it never pools into the scalar ``verify`` distribution."""
    from repro.crypto.mldsa import ML_DSA_44, MLDSA

    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(bytes(32))
    messages = [b"a", b"b", b"c"]
    signatures = [scheme.sign(secret, message) for message in messages]
    assert scheme.verify(public, messages[0], signatures[0])
    assert scheme.verify_many([public] * 3, messages, signatures) == \
        [True] * 3
    summary = summarize(TELEMETRY.tracer.snapshot())
    assert summary["crypto.mldsa.verify"]["count"] == 1
    assert summary["crypto.mldsa.verify_many"]["count"] == 1
    assert _span("crypto.mldsa.verify_many")["attrs"]["batch"] == 3


def test_compsoc_slot_utilization_attrs(enabled_telemetry):
    from repro.compsoc import ComposablePlatform
    from repro.compsoc.vep import Application

    platform = ComposablePlatform(policy="tdm")
    vep = platform.create_vep("v1")
    vep.attach(Application("app1",
                           [("compute", 2), ("mem", vep.memory.base),
                            ("compute", 1),
                            ("mem", vep.memory.base + 8)]))
    platform.run()

    attrs = _span("compsoc.run")["attrs"]
    assert 0 < attrs["utilization"] <= 1
    assert attrs["transactions.v1"] == 2
    assert attrs["utilization.v1"] == pytest.approx(attrs["utilization"])


def test_subsystems_silent_when_disabled():
    from repro.hades import (DesignContext, ExhaustiveExplorer,
                             OptimizationGoal)
    from repro.hades.library import keccak

    assert not TELEMETRY.enabled       # the repo-wide default
    reset_telemetry()
    ExhaustiveExplorer(keccak(), DesignContext(masking_order=1)).run(
        OptimizationGoal.AREA)
    assert TELEMETRY.tracer.snapshot() == []
