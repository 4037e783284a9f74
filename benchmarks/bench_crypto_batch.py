"""X10 — batch-throughput crypto kernels (serving-scale amortization).

Attestation verifiers and campaign oracles process signatures in
batches, so the per-operation cost that matters at scale is the
*amortized* one: ML-DSA ``sign_many``/``verify_many`` stack message
lanes through the int64 NTT kernels, and Ed25519 batch verification
folds the whole batch into one random-linear-combination equation.
Per-call ML-DSA ``sign``/``verify`` are the same kernels at batch size
1, so their ratios measure what stacking lanes buys.

Every benchmarked batch call is parity-checked against the per-call
loop in the same test (byte- or boolean-identical), the batch
PERF counters must attribute the lanes, and the amortized speedup
floors from the design docs are asserted on CI-class machines
(>= ``_GATE_MIN_CPUS`` CPUs), the Ed25519 one and the cross-key
ML-DSA one on every machine.  Timings are fixed-rounds so the
bench-history counter gate stays deterministic.
"""

import time
from contextlib import contextmanager

import pytest

from repro.crypto import MLDSA, ML_DSA_44
from repro.crypto import ed25519 as ed
from repro.obs.perf import PERF, counting
from repro.runtime import available_cpus

from conftest import never_hits, write_table

#: Batch size for all amortization measurements (the attestation
#: verifier's working set in the campaign benches).
BATCH = 64

#: Amortized batch-over-scalar floors asserted on CI-class machines
#: (the Ed25519 one on every machine: measured 2.6-3.0x on a 2-vCPU
#: x86-64 KVM guest, 64 distinct keys).
MLDSA_SIGN_BATCH_FLOOR = 1.8
MLDSA_VERIFY_BATCH_FLOOR = 2.0
ED25519_BATCH_FLOOR = 2.0
_GATE_MIN_CPUS = 4

#: One cross-key ``MLDSA.verify_many`` pass against the per-key grouped
#: ``MLDSAVerifier.verify_many`` loop it replaced, on an attest-fresh
#: shaped wave: CROSS_KEY_LANES lanes over CROSS_KEYS keys.  A
#: same-process ratio, gated on every machine.  Five runs on a 2-vCPU
#: x86-64 KVM guest read 1.67x, 1.67x, 1.70x, 1.80x and 1.80x (best of
#: CROSS_KEY_ROUNDS interleaved rounds each); the floor is at most half
#: the slowest.
CROSS_KEYS = 28
CROSS_KEY_LANES = 46
CROSS_KEY_ROUNDS = 7
MLDSA_CROSS_KEY_FLOOR = 0.8


def _timed(benchmark, fn, rounds, iterations=1):
    """Fixed-round timing (see bench_crypto_primitives: the
    bench-history gate compares PERF counter totals strictly)."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=iterations,
                              warmup_rounds=1)


@pytest.fixture(scope="session")
def batch_messages():
    return [b"attestation-%04d" % i for i in range(BATCH)]


@pytest.fixture(scope="session")
def mldsa44():
    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(bytes(32))
    return scheme, public, secret


@pytest.fixture(scope="session")
def mldsa44_sigs(mldsa44, batch_messages):
    scheme, _, secret = mldsa44
    return scheme.signer(secret).sign_many(batch_messages)


@pytest.fixture(scope="session")
def ed_batch_items(batch_messages):
    items = []
    for i, message in enumerate(batch_messages):
        seed = bytes([i]) * 32
        items.append((ed.public_key(seed), message,
                      ed.sign(seed, message)))
    return items


def test_mldsa_sign_many_batch64(benchmark, mldsa44, batch_messages):
    scheme, _, secret = mldsa44
    signer = scheme.signer(secret)
    signatures = _timed(benchmark,
                        lambda: signer.sign_many(batch_messages),
                        rounds=3)
    assert signatures[0] == signer.sign(batch_messages[0])


def test_mldsa_verify_many_batch64(benchmark, mldsa44, batch_messages,
                                   mldsa44_sigs):
    scheme, public, _ = mldsa44
    verifier = scheme.verifier(public)
    assert _timed(
        benchmark,
        lambda: verifier.verify_many(batch_messages, mldsa44_sigs),
        rounds=5) == [True] * BATCH


def test_ed25519_verify_batch64(benchmark, ed_batch_items):
    assert _timed(benchmark,
                  lambda: ed.verify_batch(ed_batch_items),
                  rounds=5) == [True] * BATCH


def test_batch_counters_move(benchmark, mldsa44, batch_messages,
                             mldsa44_sigs, ed_batch_items):
    """The batch-lane counters must attribute exactly one batch pass —
    they are what lets the bench history tell batch from scalar work."""
    scheme, public, secret = mldsa44
    signer = scheme.signer(secret)
    verifier = scheme.verifier(public)

    def one_pass():
        signer.sign_many(batch_messages[:4])
        assert verifier.verify_many(batch_messages, mldsa44_sigs) == \
            [True] * BATCH
        assert ed.verify_batch(ed_batch_items) == [True] * BATCH

    with counting() as window:
        benchmark.pedantic(one_pass, rounds=1, iterations=1)
    delta = window.delta()
    assert delta["crypto.mldsa.batch_sign_lanes"] == 4
    assert delta["crypto.mldsa.batch_verify_lanes"] == BATCH
    assert delta["crypto.ed25519.batch_verifies"] == BATCH


def test_batch_amortization_floors(benchmark, mldsa44, batch_messages,
                                   mldsa44_sigs, ed_batch_items,
                                   report_dir):
    """Amortized per-op batch cost vs the *cached-context* scalar loop
    on identical inputs (same keys, same rejection schedules), with the
    documented floors asserted on CI-class machines."""
    scheme, public, secret = mldsa44
    signer = scheme.signer(secret)
    verifier = scheme.verifier(public)

    def clock(fn, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    # Parity first: the timed batch calls must be byte/boolean-identical
    # to the scalar loops they amortize.
    assert signer.sign_many(batch_messages) == mldsa44_sigs
    assert mldsa44_sigs == [signer.sign(m) for m in batch_messages]
    assert verifier.verify_many(batch_messages, mldsa44_sigs) == \
        [verifier.verify(m, s)
         for m, s in zip(batch_messages, mldsa44_sigs)]
    assert ed.verify_batch(ed_batch_items) == \
        [ed.verify(*item) for item in ed_batch_items]

    batch_sign = clock(lambda: signer.sign_many(batch_messages), 3)
    scalar_sign = clock(
        lambda: [signer.sign(m) for m in batch_messages], 2)
    batch_verify = clock(
        lambda: verifier.verify_many(batch_messages, mldsa44_sigs), 5)
    scalar_verify = clock(
        lambda: [verifier.verify(m, s)
                 for m, s in zip(batch_messages, mldsa44_sigs)], 3)
    batch_ed = clock(lambda: ed.verify_batch(ed_batch_items), 5)
    with never_hits(ed, "VERDICT_MEMO"):
        scalar_ed = clock(
            lambda: [ed.verify(*item) for item in ed_batch_items], 3)

    def row(name, scalar, batch, floor):
        return [name, f"{scalar / BATCH * 1e6:.1f} us",
                f"{batch / BATCH * 1e6:.1f} us",
                f"{scalar / batch:.2f}x", f">= {floor:.1f}x"]

    rows = [
        row("ML-DSA-44 sign_many", scalar_sign, batch_sign,
            MLDSA_SIGN_BATCH_FLOOR),
        row("ML-DSA-44 verify_many", scalar_verify, batch_verify,
            MLDSA_VERIFY_BATCH_FLOOR),
        row("Ed25519 RLC verify_batch", scalar_ed, batch_ed,
            ED25519_BATCH_FLOOR),
    ]
    write_table(report_dir, "crypto_batch_amortization",
                f"Batch-{BATCH} amortized per-op cost vs cached-context "
                "scalar loop (best of N; floors asserted on CI-class "
                "machines)",
                ["operation", "scalar per-op", "batch per-op",
                 "speedup", "floor"], rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # A same-process ratio does not depend on the CPU count, so the
    # Ed25519 one is gated on every machine.
    assert scalar_ed / batch_ed >= ED25519_BATCH_FLOOR, rows[2]
    if available_cpus() >= _GATE_MIN_CPUS:
        assert scalar_sign / batch_sign >= MLDSA_SIGN_BATCH_FLOOR, \
            rows[0]
        assert scalar_verify / batch_verify >= \
            MLDSA_VERIFY_BATCH_FLOOR, rows[1]


@contextmanager
def _perf_paused():
    """Run a block with PERF counting off: the cross-key timing wave is
    not part of this bench's counter signature in the history."""
    was_enabled = PERF.enabled
    PERF.disable()
    try:
        yield
    finally:
        PERF.enabled = was_enabled


def test_mldsa_cross_key_vs_grouped(benchmark, report_dir):
    """One cross-key ``MLDSA.verify_many`` pass vs the per-key grouped
    loop on the same wave: boolean-identical verdicts, then a
    same-process A/B ratio (best of interleaved rounds) gated on every
    machine."""
    scheme = MLDSA(ML_DSA_44)
    with _perf_paused():
        keys = [scheme.key_gen(bytes([k + 1]) * 32)
                for k in range(CROSS_KEYS)]
        publics, messages, signatures = [], [], []
        for lane in range(CROSS_KEY_LANES):
            public, secret = keys[lane % CROSS_KEYS]
            message = b"cross-key-wave-%04d" % lane
            publics.append(public)
            messages.append(message)
            signatures.append(scheme.sign(secret, message))
        groups = {}
        for lane, public in enumerate(publics):
            groups.setdefault(public, []).append(lane)

        def grouped():
            verdicts = [None] * CROSS_KEY_LANES
            for public, lanes in groups.items():
                oks = scheme.verifier(public).verify_many(
                    [messages[i] for i in lanes],
                    [signatures[i] for i in lanes])
                for lane, ok in zip(lanes, oks):
                    verdicts[lane] = ok
            return verdicts

        def cross():
            return scheme.verify_many(publics, messages, signatures)

        def clock(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        assert cross() == grouped() == [True] * CROSS_KEY_LANES
        grouped_wall = cross_wall = float("inf")
        for _ in range(CROSS_KEY_ROUNDS):
            grouped_wall = min(grouped_wall, clock(grouped))
            cross_wall = min(cross_wall, clock(cross))
    ratio = grouped_wall / cross_wall
    write_table(report_dir, "crypto_batch_cross_key",
                f"ML-DSA-44 verify_many on {CROSS_KEY_LANES} lanes over "
                f"{CROSS_KEYS} keys: one cross-key pass vs the per-key "
                f"grouped loop (best of {CROSS_KEY_ROUNDS}; floor "
                f"{MLDSA_CROSS_KEY_FLOOR:.2f}x on every machine)",
                ["verifier", "wall", "per lane", "speedup"],
                [["per-key grouped loop", f"{grouped_wall * 1e3:.2f} ms",
                  f"{grouped_wall / CROSS_KEY_LANES * 1e6:.0f} us", ""],
                 ["cross-key verify_many", f"{cross_wall * 1e3:.2f} ms",
                  f"{cross_wall / CROSS_KEY_LANES * 1e6:.0f} us",
                  f"{ratio:.2f}x"]])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= MLDSA_CROSS_KEY_FLOOR, (grouped_wall, cross_wall)
