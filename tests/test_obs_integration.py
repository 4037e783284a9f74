"""Integration: the six instrumented subsystems emit the expected
spans/metrics when the global telemetry facade is enabled, and remain
silent when it is disabled (the default)."""

import numpy as np
import pytest

from repro.obs import TELEMETRY

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


def test_hades_exhaustive_emits_per_goal_spans(enabled_telemetry):
    from repro.hades import (DesignContext, ExhaustiveExplorer,
                             OptimizationGoal)
    from repro.hades.library import keccak

    explorer = ExhaustiveExplorer(keccak(),
                                  DesignContext(masking_order=1))
    result = explorer.run(OptimizationGoal.AREA)
    explorer.run(OptimizationGoal.LATENCY)
    runs = [r for r in TELEMETRY.tracer.snapshot()
            if r["name"] == "hades.exhaustive.run"]
    assert [r["attrs"]["goal"] for r in runs] == ["AREA", "LATENCY"]
    assert runs[0]["attrs"]["feasible"] == result.feasible
    snapshot = TELEMETRY.metrics_snapshot()
    assert snapshot["hades.evaluations"]["value"] == \
        result.feasible * 2
    assert snapshot["hades.evals_per_sec"]["value"] > 0


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
    assert TELEMETRY.metrics_snapshot()["hades.evaluations"][
        "value"] == result.evaluations


def test_cim_attack_emits_phase_spans_and_query_counter(
        enabled_telemetry):
    from repro.cim import (DigitalCimMacro, PowerModel,
                           WeightExtractionAttack)

    rng = np.random.default_rng(5)
    weights = [int(w) for w in rng.integers(0, 16, 16)]
    attack = WeightExtractionAttack(DigitalCimMacro(weights),
                                    PowerModel(0.0), repetitions=1)
    attack.run()
    names = _span_names()
    assert {"cim.attack.run", "cim.phase1",
            "cim.phase1.trace_generation", "cim.phase1.clustering",
            "cim.phase2.combination"} <= names
    snapshot = TELEMETRY.metrics_snapshot()
    assert snapshot["cim.queries"]["value"] == attack.queries_used
    assert snapshot["cim.power.traces"]["value"] == attack.queries_used


def test_rtos_kernel_counters_match_stats(enabled_telemetry):
    from repro.rtos.kernel import Kernel

    kernel = Kernel()

    def spin(context):
        for _ in range(3):
            yield

    kernel.create_task("a", 2, spin)
    kernel.create_task("b", 1, spin)
    stats = kernel.run(max_ticks=50)
    snapshot = TELEMETRY.metrics_snapshot()
    assert snapshot["rtos.context_switches"]["value"] == \
        stats.context_switches
    assert snapshot["rtos.scheduler_decisions"]["value"] >= stats.ticks
    run_span = [r for r in TELEMETRY.tracer.snapshot()
                if r["name"] == "rtos.kernel.run"][0]
    assert run_span["attrs"]["ticks"] == stats.ticks


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
    assert TELEMETRY.metrics_snapshot()["rtos.pmp_faults"][
        "value"] == stats.faults


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
    snapshot = TELEMETRY.metrics_snapshot()
    assert snapshot["tee.attest.sign_seconds"]["count"] == 2


def test_crypto_sign_verify_timing_histograms(enabled_telemetry):
    from repro.crypto import ed25519
    from repro.crypto.mldsa import ML_DSA_44, MLDSA

    signature = ed25519.sign(bytes(32), b"msg")
    assert ed25519.verify(ed25519.public_key(bytes(32)), b"msg",
                          signature)
    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(bytes(32))
    assert scheme.verify(public, b"msg", scheme.sign(secret, b"msg"))
    snapshot = TELEMETRY.metrics_snapshot()
    for name in ("crypto.ed25519.sign_seconds",
                 "crypto.ed25519.verify_seconds",
                 "crypto.mldsa.sign_seconds",
                 "crypto.mldsa.verify_seconds"):
        assert snapshot[name]["count"] >= 1
        assert snapshot[name]["p50"] > 0


def test_compsoc_slot_utilization_gauges(enabled_telemetry):
    from repro.compsoc import ComposablePlatform
    from repro.compsoc.vep import Application

    platform = ComposablePlatform(policy="tdm")
    vep = platform.create_vep("v1", memory_bytes=1 << 16)
    vep.attach(Application("app1",
                           [("compute", 2), ("mem", vep.memory.base),
                            ("compute", 1),
                            ("mem", vep.memory.base + 8)]))
    platform.run(max_cycles=500)
    snapshot = TELEMETRY.metrics_snapshot()
    overall = snapshot["compsoc.slot_utilization"]["value"]
    assert 0 < overall <= 1
    assert snapshot["compsoc.transactions.v1"]["value"] == 2
    run_span = [r for r in TELEMETRY.tracer.snapshot()
                if r["name"] == "compsoc.run"][0]
    assert run_span["attrs"]["utilization"] == pytest.approx(overall)


def test_subsystems_silent_when_disabled():
    from repro.hades import (DesignContext, ExhaustiveExplorer,
                             OptimizationGoal)
    from repro.hades.library import keccak

    assert not TELEMETRY.enabled       # the repo-wide default
    reset_telemetry()
    ExhaustiveExplorer(keccak(), DesignContext(masking_order=1)).run(
        OptimizationGoal.AREA)
    assert TELEMETRY.tracer.snapshot() == []
    assert TELEMETRY.metrics_snapshot() == {}
