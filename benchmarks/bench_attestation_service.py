"""Attestation service at fleet scale (ISSUE 10).

Sweeps the :class:`~repro.tee.service.AttestationService` over 10k /
100k / 1M simulated clients drawn from a bounded device pool — a mixed
stream of fresh verifications (first sight of each report content),
session-cache hits (steady-state re-attestation) and invalid lanes
(tampered signatures, unregistered devices, malformed bytes) — and
gates a verifications-per-second floor at the 100k tier on CI-class
machines.  A second measurement gates batch ``verify_reports`` on one
fresh 64-report wave against the scalar ``verify_report`` loop on
every machine, a third gates the exact-content session-cache key on a
warm 64-request wave against the SHA3-512-keyed cache it replaced, and
a fourth asserts the service's serial-vs-sharded byte parity (results,
audit ledger, PERF counters) on a representative workload.

The tier sweep runs with no telemetry subscriber: a subscriber
deliberately bypasses the session cache (timed spans cannot be
replayed), which is its own benchmark — ``bench_obs_overhead`` — not
this one.  PERF counting stays on, so the bench-history gate tracks
the service counters run over run.
"""

import time

import pytest

from repro.crypto import ed25519
from repro.crypto.keccak import sha3_256, sha3_512
from repro.obs import PERF, TELEMETRY
from repro.obs.audit import AUDIT, canonical_encode
from repro.obs.perf import counting
from repro.runtime import available_cpus
from repro.tee import (AttestationService, build_tee, verify_report,
                       verify_reports)
from repro.tee.service import _SESSION_KEY_DOMAIN, _SESSION_TOKEN_DOMAIN

from conftest import never_hits, write_table

#: Simulated-client tiers for the throughput sweep.
TIERS = (10_000, 100_000, 1_000_000)

#: Requests per drain wave in the steady-state phase (one drain's
#: batches all read the cache frozen at drain start, so hits only
#: accrue *across* waves — exactly a serving loop's arrival windows).
WAVE = 50_000

#: Verifications/s floor gated at the 100k tier on CI-class machines.
SERVICE_FLOOR_100K = 20_000.0

#: A fresh attestation wave for the batch-vs-scalar ratio: 64 reports
#: from 8 devices (alternating hybrid-PQ and classical, two enclaves
#: each), as one ``max_batch=64`` flush sees them.
WAVE_REPORTS = 64
WAVE_DEVICES = 8
#: Batch-over-scalar floor for that wave (same-process ratio, gated on
#: every machine; measured 6.2-7.4x on a 2-vCPU x86-64 KVM guest).
WAVE_SPEEDUP_FLOOR = 5.0
WAVE_ROUNDS = 4

#: Warm 64-request wave (half hybrid-PQ reports, as in the bench's
#: ``attest-steady``) through the exact-content session cache against
#: the frozen SHA3-512-keyed baseline below: best of ``KEY_ROUNDS``
#: interleaved rounds of ``KEY_WAVES`` waves each, with telemetry (which
#: bypasses the cache) and PERF (whose counters bench history compares
#: strictly) off for the whole measurement.  A same-process ratio, so
#: asserted on every machine, at or below half the slowest of five
#: runs' excess over 1.0x (9.85x, 9.64x, 14.02x, 10.19x, 9.71x on a
#: 2-vCPU guest).
SESSION_KEY_FLOOR = 4.0
KEY_ROUNDS = 7
KEY_WAVES = 16

_GATE_MIN_CPUS = 4


@pytest.fixture(scope="session")
def fleet():
    """Bounded device pool: 2 hybrid-PQ + 2 classical devices, two
    enclaves each, four report-data variants per enclave."""
    devices = {}
    pool = []            # (device_id, report_bytes) distinct contents
    for idx, post_quantum in ((0, True), (1, True), (2, False),
                              (3, False)):
        root = b"bench-service-device-%02d-root-pad" % idx
        platform = build_tee(root[:32], post_quantum=post_quantum)
        device_id = f"dev{idx}"
        devices[device_id] = platform.device.public_identity()
        enclaves = [platform.sm.create_enclave(b"enclave-%d" % e)
                    for e in range(2)]
        for enclave in enclaves:
            for variant in range(4):
                report = platform.sm.attestation_requests(
                    [enclave], [b"variant-%d" % variant])[0]
                pool.append((device_id, report))
    tampered = bytearray(pool[0][1])
    tampered[-1] ^= 0x01                      # device-signature break
    invalid = [
        (pool[0][0], bytes(tampered)),        # fails crypto (cached)
        ("ghost", pool[1][1]),                # unregistered device
        (pool[2][0], b"\x17" * 33),           # malformed encoding
    ]
    return {"devices": devices, "pool": pool, "invalid": invalid}


class _DigestKeyedService(AttestationService):
    """Frozen baseline: the session cache keyed by a SHA3-512 digest of
    the length-prefixed request parts, minted for every request, hit or
    miss; the digest is also the token input, so tokens are the same."""

    def _session_key(self, request, identity):
        parts = [
            request.device_id.encode(),
            identity["ed25519"],
            identity["mldsa"] or b"",
            request.expected_enclave_hash or b"",
            self._expected_sm.get(request.device_id) or b"",
            request.report,
        ]
        blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
        return sha3_512(_SESSION_KEY_DOMAIN + blob)

    @staticmethod
    def _session_token(key):
        return sha3_256(_SESSION_TOKEN_DOMAIN + key)


def _mixed_stream(fleet, count, seed):
    """Deterministic request mix: ~0.5% invalid lanes interleaved into
    a rotation over the valid pool (seed-stable admission order)."""
    pool = fleet["pool"]
    invalid = fleet["invalid"]
    stream = []
    state = seed & 0x7FFFFFFF
    for i in range(count):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        if state % 200 == 0:
            stream.append(invalid[state % len(invalid)])
        else:
            stream.append(pool[state % len(pool)])
    return stream


def _run_tier(fleet, count):
    """One tier: onboarding drain (every distinct content once), then
    steady-state waves; returns (wall seconds, ok lanes, lanes)."""
    service = AttestationService(dict(fleet["devices"]), max_batch=256)
    warmup = list(fleet["pool"]) + list(fleet["invalid"])
    stream = _mixed_stream(fleet, count - len(warmup), seed=count)
    ok = 0
    start = time.perf_counter()
    for result in service.process(warmup):
        ok += result["ok"]
    for lo in range(0, len(stream), WAVE):
        for result in service.process(stream[lo:lo + WAVE]):
            ok += result["ok"]
    wall = time.perf_counter() - start
    return wall, ok, len(warmup) + len(stream)


def test_service_tier_sweep(benchmark, fleet, report_dir):
    telemetry_was, TELEMETRY.enabled = TELEMETRY.enabled, False
    try:
        rows = []
        gate_rate = None
        for tier in TIERS:
            wall, ok, lanes = _run_tier(fleet, tier)
            assert lanes == tier
            # ~0.5% of the steady-state stream is invalid by
            # construction; everything else must verify.
            assert 0.99 <= ok / lanes < 1.0
            rate = lanes / wall
            if tier == 100_000:
                gate_rate = rate
            rows.append([f"{tier:,}", f"{wall:.3f} s",
                         f"{rate:,.0f}/s", f"{lanes - ok}"])
    finally:
        TELEMETRY.enabled = telemetry_was
    write_table(report_dir, "attestation_service",
                "Attestation-service throughput: mixed fresh/cached/"
                "invalid lanes over a bounded device pool "
                f"(floor {SERVICE_FLOOR_100K:,.0f}/s at the 100k tier "
                "on CI-class machines)",
                ["clients", "wall", "verifications/s", "rejected"],
                rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if available_cpus() >= _GATE_MIN_CPUS:
        assert gate_rate >= SERVICE_FLOOR_100K, rows


def test_verify_reports_vs_scalar_loop(benchmark, report_dir):
    """Batch ``verify_reports`` on one fresh 64-report wave against the
    scalar ``verify_report`` loop over the same reports: a same-process
    A/B ratio (best of N), gated on every machine.  Boolean-identical
    verdicts and the coalesced chain size are pinned first."""
    reports, identities = [], []
    for idx in range(WAVE_DEVICES):
        root = (b"bench-wave-device-%02d" % idx).ljust(32, b"-")
        platform = build_tee(root, post_quantum=idx % 2 == 0)
        enclaves = [platform.sm.create_enclave(b"wave-enclave-%d" % e)
                    for e in range(2)]
        for nonce in range(WAVE_REPORTS // (2 * WAVE_DEVICES)):
            reports += platform.sm.attest_enclaves(
                enclaves, [b"nonce-%d" % nonce] * 2)
        identities += [platform.device.public_identity()] * \
            (WAVE_REPORTS // WAVE_DEVICES)

    def scalar_loop():
        with never_hits(ed25519, "VERDICT_MEMO"):
            return [verify_report(r, identity)
                    for r, identity in zip(reports, identities)]

    def batch():
        return verify_reports(reports, identities)

    def clock(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    assert len(reports) == WAVE_REPORTS
    assert batch() == scalar_loop() == [True] * WAVE_REPORTS
    with counting() as window:
        batch()
    # One combined chain over the distinct lanes (one SM certificate
    # per device plus every enclave signature) and the distinct keys
    # (device and SM key per device), plus the base point.
    assert window.delta()["crypto.ed25519.msm_points"] == \
        (WAVE_DEVICES + WAVE_REPORTS) + 2 * WAVE_DEVICES + 1
    # Interleaved rounds, best of each side: a slow stretch of a shared
    # host then lands on both sides instead of on one.
    scalar_wall = batch_wall = float("inf")
    for _ in range(WAVE_ROUNDS):
        scalar_wall = min(scalar_wall, clock(scalar_loop))
        for _ in range(3):
            batch_wall = min(batch_wall, clock(batch))
    speedup = scalar_wall / batch_wall
    write_table(report_dir, "attestation_service_wave",
                f"verify_reports on a fresh {WAVE_REPORTS}-report wave from "
                f"{WAVE_DEVICES} devices vs the scalar verify_report loop "
                f"(best of N; floor {WAVE_SPEEDUP_FLOOR:.1f}x)",
                ["verifier", "wall", "per report", "speedup"],
                [["scalar verify_report loop",
                  f"{scalar_wall * 1e3:.1f} ms",
                  f"{scalar_wall / WAVE_REPORTS * 1e6:.0f} us", ""],
                 ["batch verify_reports", f"{batch_wall * 1e3:.1f} ms",
                  f"{batch_wall / WAVE_REPORTS * 1e6:.0f} us",
                  f"{speedup:.2f}x"]])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= WAVE_SPEEDUP_FLOOR, (scalar_wall, batch_wall)


def test_exact_session_key_vs_digest_keyed_baseline(benchmark, fleet,
                                                    report_dir):
    """A warm wave costs one cache lookup per request: the exact-content
    key against the SHA3-512-keyed baseline, same requests, same
    process.  Both sides return identical results (tokens included)."""
    pool = fleet["pool"]
    wave = [pool[i % len(pool)] for i in range(64)]
    services = {"exact": AttestationService(dict(fleet["devices"]),
                                            max_batch=64),
                "digest": _DigestKeyedService(dict(fleet["devices"]),
                                              max_batch=64)}
    best = dict.fromkeys(services, float("inf"))
    outputs = {}
    was_enabled = TELEMETRY.enabled, PERF.enabled
    TELEMETRY.enabled = PERF.enabled = False
    try:
        cold = {name: service.process(wave, jobs=1)
                for name, service in services.items()}
        for _ in range(KEY_ROUNDS):
            for name, service in services.items():
                start = time.perf_counter()
                for _ in range(KEY_WAVES):
                    outputs[name] = service.process(wave, jobs=1)
                best[name] = min(best[name],
                                 time.perf_counter() - start)
    finally:
        TELEMETRY.enabled, PERF.enabled = was_enabled
    assert cold["exact"] == cold["digest"]
    assert all(result["ok"] for result in cold["exact"])
    assert outputs["exact"] == outputs["digest"]
    for name, service in services.items():
        stats = service.cache_stats()
        # The cold drain reads the cache frozen at its start, so both
        # copies of each report miss there; every timed request hits.
        assert stats["misses"] == len(wave), name
        assert stats["hits"] == len(wave) * KEY_ROUNDS * KEY_WAVES, name
    ratio = best["digest"] / best["exact"]
    requests = len(wave) * KEY_WAVES
    write_table(
        report_dir, "attestation_service_session_key",
        f"Warm {len(wave)}-request wave through the session cache: "
        f"exact-content key vs SHA3-512-keyed baseline (best of "
        f"{KEY_ROUNDS} interleaved rounds of {KEY_WAVES} waves; "
        f"identical results)",
        ["session key", "wall", "per request", "speedup", "floor"],
        [["SHA3-512 digest (baseline)", f"{best['digest'] * 1e3:.1f} ms",
          f"{best['digest'] / requests * 1e6:.1f} us", "1.00x", "-"],
         ["exact content", f"{best['exact'] * 1e3:.1f} ms",
          f"{best['exact'] / requests * 1e6:.1f} us", f"{ratio:.2f}x",
          f">= {SESSION_KEY_FLOOR:.1f}x"]])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= SESSION_KEY_FLOOR, (best, ratio)


def test_service_serial_vs_sharded_parity(benchmark, fleet):
    """Service results, audit ledger and PERF counters byte-identical
    between a serial drain and ``run_sharded`` workers."""

    def run(jobs):
        service = AttestationService(dict(fleet["devices"]),
                                     max_batch=64)
        submissions = (list(fleet["pool"]) + list(fleet["invalid"])
                       + _mixed_stream(fleet, 2000, seed=7))
        audit_was = AUDIT.enabled
        AUDIT.reset()
        AUDIT.enable()
        try:
            with counting() as window:
                results = service.process(submissions, jobs=jobs)
            audit_blob = canonical_encode(AUDIT.export_records())
        finally:
            AUDIT.reset()
            AUDIT.enabled = audit_was
        counters = {k: v for k, v in sorted(window.delta().items())
                    if not k.startswith("runtime.")}
        return (canonical_encode(results), audit_blob,
                canonical_encode(counters))

    serial = run(jobs=1)
    sharded = run(jobs=2)
    assert sharded[0] == serial[0], "service results diverged"
    assert sharded[1] == serial[1], "audit ledgers diverged"
    assert sharded[2] == serial[2], "PERF counters diverged"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
