"""X5 — cost of the cryptographic primitives (Section II-C context).

The paper's challenge statement: "Post-Quantum Cryptography (PQC) ...
has significantly larger resource requirements than classic asymmetric
schemes."  The bench quantifies that on this reproduction's own
implementations: sizes and operation timings of Ed25519 vs ML-DSA-44
(and the larger parameter sets), plus the symmetric substrate.

Key material is built lazily in session fixtures — importing this
module costs nothing, so collection stays fast and the keygen/sign work
is attributed to the benchmarked session instead of import time.  Three
gate tests ride along: the kernel PERF counters must move when the
primitives run, and the fast paths must beat their retained
references (``tests/crypto_reference.py``) by the documented floors
(the Ed25519 ratio on CI-class machines, the others on every machine).
"""

import time

import numpy as np
import pytest

from repro.crypto import (AES, HybridKeyPair, MLDSA,
                          MLKEM, ML_DSA_44, ML_DSA_65, ML_DSA_87,
                          ML_KEM_512, ML_KEM_768, ML_KEM_1024,
                          SigningKey, seal_aead, sha3_256)
from repro.crypto import aes, mlkem
from repro.crypto import ed25519 as ed
from repro.obs.perf import counting
from repro.runtime import available_cpus

import crypto_reference as reference
from conftest import never_hits, write_table

_sizes = {}

_MLDSA_NAMES = [p.name for p in (ML_DSA_44, ML_DSA_65, ML_DSA_87)]
_MLKEM_NAMES = [p.name for p in (ML_KEM_512, ML_KEM_768, ML_KEM_1024)]

#: Fast-path-over-reference floors.  The ML-DSA ratios (>= 8.7x on a
#: 2-vCPU guest) are asserted on every machine; the Ed25519 one (down
#: to 1.93x there) only on CI-class machines (>= ``_GATE_MIN_CPUS``
#: CPUs, mirroring the fault-campaign gate).
MLDSA_SIGN_SPEEDUP_FLOOR = 3.0
MLDSA_VERIFY_SPEEDUP_FLOOR = 3.0
ED25519_VERIFY_SPEEDUP_FLOOR = 2.0
_GATE_MIN_CPUS = 4
#: Batched ML-KEM-768 NTT+INTT over k rows vs the FIPS 203 loop form.
#: A same-process ratio of single-threaded work, so it is asserted on
#: every machine.
MLKEM_NTT_SPEEDUP_FLOOR = 3.0


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(benchmark, fn, rounds, iterations=1):
    """Fixed-round timing: the bench-history gate compares per-bench
    PERF counter totals *strictly* across recorded runs, so the
    primitives must execute a deterministic number of times (adaptive
    calibration would drift the counters with machine load)."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=iterations,
                              warmup_rounds=1)


@pytest.fixture(scope="session")
def ed_pair():
    return SigningKey(bytes(32))


@pytest.fixture(scope="session")
def mldsa_schemes():
    return {p.name: MLDSA(p) for p in (ML_DSA_44, ML_DSA_65, ML_DSA_87)}


@pytest.fixture(scope="session")
def mldsa_keys(mldsa_schemes):
    return {name: scheme.key_gen(bytes(32))
            for name, scheme in mldsa_schemes.items()}


@pytest.fixture(scope="session")
def mldsa_sigs(mldsa_schemes, mldsa_keys):
    return {name: scheme.sign(mldsa_keys[name][1], b"attestation")
            for name, scheme in mldsa_schemes.items()}


@pytest.fixture(scope="session")
def mlkem_schemes():
    return {p.name: MLKEM(p) for p in (ML_KEM_512, ML_KEM_768,
                                       ML_KEM_1024)}


@pytest.fixture(scope="session")
def mlkem_keys(mlkem_schemes):
    return {name: kem.key_gen(bytes(32), bytes(32))
            for name, kem in mlkem_schemes.items()}


def test_ed25519_sign(benchmark, ed_pair):
    with never_hits(ed, "SIGN_MEMO"):
        signature = _timed(benchmark,
                           lambda: ed_pair.sign(b"attestation"),
                           rounds=20)
    _sizes["Ed25519"] = (32, 64)
    assert len(signature) == 64


def test_ed25519_verify(benchmark, ed_pair):
    signature = ed_pair.sign(b"attestation")
    with never_hits(ed, "VERDICT_MEMO"):
        assert _timed(benchmark,
                      lambda: ed.verify(ed_pair.public, b"attestation",
                                        signature), rounds=20)


@pytest.mark.parametrize("name", sorted(_MLDSA_NAMES))
def test_mldsa_sign(benchmark, name, mldsa_schemes, mldsa_keys):
    scheme = mldsa_schemes[name]
    _, secret = mldsa_keys[name]
    signature = _timed(benchmark,
                       lambda: scheme.sign(secret, b"attestation"),
                       rounds=10)
    _sizes[name] = (scheme.params.public_key_bytes,
                    scheme.params.signature_bytes)
    assert len(signature) == scheme.params.signature_bytes


@pytest.mark.parametrize("name", sorted(_MLDSA_NAMES))
def test_mldsa_verify(benchmark, name, mldsa_schemes, mldsa_keys,
                      mldsa_sigs):
    scheme = mldsa_schemes[name]
    public, _ = mldsa_keys[name]
    assert _timed(benchmark,
                  lambda: scheme.verify(public, b"attestation",
                                        mldsa_sigs[name]), rounds=10)


@pytest.mark.parametrize("name", sorted(_MLKEM_NAMES))
def test_mlkem_encaps(benchmark, name, mlkem_schemes, mlkem_keys):
    kem = mlkem_schemes[name]
    ek, _ = mlkem_keys[name]
    with never_hits(mlkem, "ENCAPS_MEMO"):
        key, ciphertext = _timed(benchmark,
                                 lambda: kem.encaps(ek, bytes(32)),
                                 rounds=10)
    assert len(ciphertext) == kem.params.ciphertext_bytes
    _sizes[name] = (kem.params.ek_bytes, kem.params.ciphertext_bytes)


@pytest.mark.parametrize("name", sorted(_MLKEM_NAMES))
def test_mlkem_decaps(benchmark, name, mlkem_schemes, mlkem_keys):
    kem = mlkem_schemes[name]
    ek, dk = mlkem_keys[name]
    key, ciphertext = kem.encaps(ek, bytes(32))
    with never_hits(mlkem, "DECAPS_MEMO"):
        assert _timed(benchmark, lambda: kem.decaps(dk, ciphertext),
                      rounds=10) == key


def test_hybrid_sign(benchmark):
    pair = HybridKeyPair(bytes(32), bytes(32))
    with never_hits(ed, "SIGN_MEMO"):
        signature = _timed(benchmark, lambda: pair.sign(b"attestation"),
                           rounds=10)
    assert len(signature) == 64 + 2420


def test_aes256_block(benchmark):
    cipher = AES(bytes(32))
    _timed(benchmark, lambda: cipher.encrypt_block(bytes(16)),
           rounds=30, iterations=10)


def test_sealing(benchmark):
    key, nonce = bytes(32), bytes(12)
    payload = bytes(4096)
    with never_hits(aes, "CTR_MEMO"):
        _timed(benchmark, lambda: seal_aead(key, nonce, payload),
               rounds=20)


def test_sha3(benchmark):
    _timed(benchmark, lambda: sha3_256(bytes(1024)),
           rounds=30, iterations=10)


def test_kernel_counters_move(benchmark, ed_pair, mldsa_schemes,
                              mldsa_keys, mldsa_sigs):
    """The architectural kernel counters must attribute work to one
    pass over the signature schemes — a silently dead counter would
    invalidate the recorded bench history."""
    scheme = mldsa_schemes["ML-DSA-44"]
    public, secret = mldsa_keys["ML-DSA-44"]

    def one_pass():
        signature = ed_pair.sign(b"attestation")
        assert ed.verify(ed_pair.public, b"attestation", signature)
        assert scheme.verify(public, b"attestation",
                             mldsa_sigs["ML-DSA-44"])
        return scheme.sign(secret, b"attestation")

    with counting() as window:
        benchmark.pedantic(one_pass, rounds=1, iterations=1)
    delta = window.delta()
    assert delta["crypto.ed25519.point_adds"] > 0
    assert delta["crypto.mldsa.ntt_calls"] > 0


def test_fastpath_speedup_floors(benchmark, ed_pair, mldsa_schemes,
                                 mldsa_keys, report_dir):
    """Time the fast paths against the retained in-tree references on
    identical inputs (identical rejection schedules, so the ratio is
    machine-portable) and assert the documented floors."""
    scheme = mldsa_schemes["ML-DSA-44"]
    public, secret = mldsa_keys["ML-DSA-44"]
    message = b"attest me"
    ed_sig = ed_pair.sign(message)

    clock = _best_of
    signature = scheme.sign(secret, message)
    assert reference.mldsa_sign(scheme, secret, message) == signature
    assert reference.mldsa_verify(scheme, public, message, signature)
    assert reference.ed25519_verify(ed_pair.public, message, ed_sig)

    fast_sign = clock(lambda: scheme.sign(secret, message), 5)
    ref_sign = clock(
        lambda: reference.mldsa_sign(scheme, secret, message), 3)
    fast_verify = clock(
        lambda: scheme.verify(public, message, signature), 10)
    ref_verify = clock(
        lambda: reference.mldsa_verify(scheme, public, message, signature),
        5)
    with never_hits(ed, "VERDICT_MEMO"):
        fast_ed = clock(
            lambda: ed.verify(ed_pair.public, message, ed_sig), 10)
    ref_ed = clock(
        lambda: reference.ed25519_verify(ed_pair.public, message, ed_sig),
        5)

    rows = [
        ["ML-DSA-44 sign", f"{ref_sign * 1e3:.2f} ms",
         f"{fast_sign * 1e3:.2f} ms", f"{ref_sign / fast_sign:.2f}x",
         f">= {MLDSA_SIGN_SPEEDUP_FLOOR:.0f}x"],
        ["ML-DSA-44 verify", f"{ref_verify * 1e3:.2f} ms",
         f"{fast_verify * 1e3:.2f} ms",
         f"{ref_verify / fast_verify:.2f}x",
         f">= {MLDSA_VERIFY_SPEEDUP_FLOOR:.0f}x"],
        ["Ed25519 verify", f"{ref_ed * 1e3:.2f} ms",
         f"{fast_ed * 1e3:.2f} ms", f"{ref_ed / fast_ed:.2f}x",
         f">= {ED25519_VERIFY_SPEEDUP_FLOOR:.0f}x"],
    ]
    write_table(report_dir, "crypto_fastpath_speedups",
                "Fast path vs retained reference (same inputs, best of "
                "N; Ed25519 floor asserted on CI-class machines)",
                ["operation", "reference", "fast path", "speedup",
                 "floor"], rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ref_sign / fast_sign >= MLDSA_SIGN_SPEEDUP_FLOOR, rows[0]
    assert ref_verify / fast_verify >= MLDSA_VERIFY_SPEEDUP_FLOOR, rows[1]
    if available_cpus() >= _GATE_MIN_CPUS:
        assert ref_ed / fast_ed >= ED25519_VERIFY_SPEEDUP_FLOOR, rows[2]


def test_mlkem_ntt_speedup_floor(benchmark, report_dir):
    """The shared lattice engine's batched ML-KEM-768 NTT+INTT over
    k = 3 rows against the FIPS 203 loop forms in
    ``tests/crypto_reference.py``, best of N on identical inputs."""
    k = ML_KEM_768.k
    polys = [[(7919 * (i + 1) * (j + 3)) % mlkem.Q for j in range(mlkem.N)]
             for i in range(k)]
    rows = np.array(polys, dtype=np.int64)
    ring = mlkem.RING

    def fast():
        return ring.intt(ring.ntt(rows))

    def loop():
        return [reference.mlkem_intt(reference.mlkem_ntt(p)) for p in polys]

    assert fast().tolist() == loop() == polys
    fast_s = _best_of(fast, 50)
    loop_s = _best_of(loop, 10)
    ratio = loop_s / fast_s
    rows_out = [[f"ML-KEM-768 NTT+INTT, {k} rows",
                 f"{loop_s * 1e3:.3f} ms", f"{fast_s * 1e3:.3f} ms",
                 f"{ratio:.2f}x", f">= {MLKEM_NTT_SPEEDUP_FLOOR:.1f}x"]]
    write_table(report_dir, "lattice_ntt_speedup",
                "Batched lattice NTT vs FIPS 203 loop form (same inputs, "
                "best of N; floor asserted on every machine)",
                ["operation", "loop form", "batched", "speedup", "floor"],
                rows_out)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= MLKEM_NTT_SPEEDUP_FLOOR, rows_out[0]


def test_report_sizes(benchmark, report_dir):
    def build():
        rows = []
        for name in ("Ed25519", "ML-DSA-44", "ML-DSA-65", "ML-DSA-87"):
            public, signature = _sizes[name]
            rows.append([name, public, signature])
        rows.append(["hybrid (Ed25519+ML-DSA-44)", 32 + 1312,
                     64 + 2420])
        for name in ("ML-KEM-512", "ML-KEM-768", "ML-KEM-1024"):
            ek, ciphertext = _sizes[name]
            rows.append([f"{name} (KEM: ek/ct)", ek, ciphertext])
        write_table(report_dir, "crypto_sizes",
                    "Classic vs PQ material sizes (bytes; signatures "
                    "and KEM)",
                    ["scheme", "public key", "signature/ciphertext"],
                    rows)
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    # PQC >> classical, the paper's resource-requirements point.
    assert _sizes["ML-DSA-44"][1] > 30 * _sizes["Ed25519"][1]
