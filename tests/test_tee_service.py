"""Attestation-service suites: deterministic micro-batching, the
enclave-session cache, and serial-vs-parallel byte parity.

The session-cache tests pin the counter contract stated in
``repro.runtime.memo``: hits must return identical bytes, tick the
same ``tee.service.*`` counters as the cold run and no ``crypto.*``
counter (the cache belongs to the service, so no delta is replayed);
armed fault injection and live telemetry subscribers must bypass the
cache entirely, and a changed verification policy (measurement pin)
must miss.  The parity tests pin the acceptance contract of the
service: results, audit ledger and PERF counters byte-identical
between a serial drain and a sharded one.
"""

import hashlib
import json

import pytest

from repro.faults.injector import FaultSpec
from repro.faults.models import BIT_FLIP
from repro.obs.audit import canonical_encode, verify_records
from repro.obs.perf import counting
from repro.tee import AttestationService, build_tee, verify_report
from repro.tee.attestation import AttestationReport

from helpers import injected, traced
from parity import assert_parity, capture


@pytest.fixture(scope="module")
def fleet():
    """Two devices (one hybrid-PQ, one classical), their enclaves and
    a pool of encoded attestation requests."""
    pq = build_tee(b"service-pq-device-root-secret-00", post_quantum=True)
    cl = build_tee(b"service-cl-device-root-secret-00",
                   post_quantum=False)
    pq_enclave = pq.sm.create_enclave(b"pq-enclave-image")
    cl_enclave = cl.sm.create_enclave(b"cl-enclave-image")
    pq_reports = pq.sm.attestation_requests(
        [pq_enclave] * 3, [b"pq-%d" % i for i in range(3)])
    cl_reports = cl.sm.attestation_requests(
        [cl_enclave] * 3, [b"cl-%d" % i for i in range(3)])
    return {
        "pq": pq, "cl": cl,
        "pq_enclave": pq_enclave, "cl_enclave": cl_enclave,
        "pq_reports": pq_reports, "cl_reports": cl_reports,
        "devices": {"pq0": pq.device.public_identity(),
                    "cl0": cl.device.public_identity()},
    }


def _service(fleet, **kwargs):
    return AttestationService(dict(fleet["devices"]), **kwargs)


def _verdict_bytes(results):
    """Canonical bytes of the verification outcome, without the
    admission sequence numbers (those increase monotonically across
    drains by design)."""
    return canonical_encode([{k: v for k, v in r.items() if k != "seq"}
                             for r in results])


class TestMicroBatchQueue:

    def test_size_flush(self, fleet):
        svc = _service(fleet, max_batch=2)
        with counting() as window:
            svc.submit("cl0", fleet["cl_reports"][0])
            assert window.delta().get("tee.service.flush_size", 0) == 0
            svc.submit("cl0", fleet["cl_reports"][1])
            assert window.delta()["tee.service.flush_size"] == 1

    def test_results_in_admission_order(self, fleet):
        svc = _service(fleet, max_batch=3)
        tampered = bytearray(fleet["cl_reports"][0])
        tampered[-1] ^= 0xFF               # break the device signature
        submissions = [
            ("pq0", fleet["pq_reports"][0]),
            ("cl0", fleet["cl_reports"][0]),
            ("ghost", fleet["cl_reports"][0]),    # unregistered
            ("cl0", bytes(tampered)),
            ("cl0", b"\x00" * 17),                # malformed
            ("pq0", fleet["pq_reports"][1]),
        ]
        results = svc.process(submissions, jobs=1)
        assert [r["seq"] for r in results] == list(range(6))
        assert [r["ok"] for r in results] == \
            [True, True, False, False, False, True]
        assert all(bool(r["session"]) == r["ok"] for r in results)

    def test_empty_drain(self, fleet):
        assert _service(fleet).drain() == []

    def test_cross_device_batch_matches_scalar_verifier(self, fleet):
        """One flushed batch mixing PQ and classical devices agrees
        lane-for-lane with the scalar ``verify_report`` chain."""
        svc = _service(fleet, max_batch=6)
        submissions = [("pq0", r) for r in fleet["pq_reports"]] + \
                      [("cl0", r) for r in fleet["cl_reports"]]
        results = svc.process(submissions, jobs=1)
        for (device, blob), got in zip(submissions, results):
            report = AttestationReport.decode(blob)
            assert got["ok"] == verify_report(
                report, fleet["devices"][device])
            assert got["ok"] is True


class TestSessionCache:

    def test_hit_is_byte_identical(self, fleet):
        svc = _service(fleet)
        first = svc.process([("pq0", fleet["pq_reports"][0])], jobs=1)
        second = svc.process([("pq0", fleet["pq_reports"][0])], jobs=1)
        assert _verdict_bytes(second) == _verdict_bytes(first)
        assert svc.cache_stats()["hits"] == 1
        assert svc.cache_stats()["misses"] == 1

    @pytest.mark.parametrize("flush", [1, 2])
    def test_warm_flush_counts_only_service_work(self, fleet, flush):
        """Hits replay no PERF delta: the warm re-run of a flush ticks
        the same ``tee.service.*`` counters as the cold run and no
        ``crypto.*`` counter, because no verification ran."""
        svc = _service(fleet)
        requests = [("pq0", report)
                    for report in fleet["pq_reports"][1:1 + flush]]
        with counting() as cold:
            svc.process(requests, jobs=1)
        cold_delta = cold.delta()
        with counting() as warm:
            svc.process(requests, jobs=1)
        warm_delta = warm.delta()

        def service(delta):
            return {k: v for k, v in delta.items()
                    if k.startswith("tee.service.")}

        assert cold_delta["tee.service.verified"] == flush
        assert cold_delta["crypto.mldsa.verify"] > 0
        assert service(warm_delta) == service(cold_delta)
        assert not [k for k in warm_delta if k.startswith("crypto.")]
        assert svc.cache_stats()["hits"] == flush

    def test_active_telemetry_bypasses_cache(self, fleet):
        svc = _service(fleet)
        request = [("cl0", fleet["cl_reports"][0])]
        clean = svc.process(request, jobs=1)    # warm the cache
        hits_before = svc.cache_stats()["hits"]
        with traced() as tracer:
            lit = svc.process(request, jobs=1)
            names = {record["name"] for record in tracer.snapshot()}
        # Subscribed runs verify for real — timed spans cannot be
        # replayed from the cache — yet mint identical bytes.
        assert "tee.service.batch" in names
        assert "crypto.ed25519.verify_batch" in names
        assert _verdict_bytes(lit) == _verdict_bytes(clean)
        assert svc.cache_stats()["hits"] == hits_before

    def test_armed_faults_bypass_cache(self, fleet):
        svc = _service(fleet)
        request = [("cl0", fleet["cl_reports"][1])]
        clean = svc.process(request, jobs=1)    # warm the cache
        stats_before = svc.cache_stats()
        with injected(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=0)):
            armed = svc.process(request, jobs=1)
        # The armed drain must neither consult nor repopulate the
        # cache; no corruption site fires in verification, so the
        # verdict bytes still match.
        assert _verdict_bytes(armed) == _verdict_bytes(clean)
        stats_after = svc.cache_stats()
        assert stats_after["hits"] == stats_before["hits"]
        assert stats_after["misses"] == stats_before["misses"]

    def test_measurement_mismatch_misses(self, fleet):
        svc = _service(fleet)
        report = fleet["cl_reports"][2]
        good_hash = AttestationReport.decode(report).enclave_hash
        trusted = svc.process([("cl0", report, good_hash)], jobs=1)
        assert trusted[0]["ok"] is True
        # Same report under a different pin: the content address
        # changes, so the cached session must NOT be served.
        wrong_hash = bytes(64)
        pinned = svc.process([("cl0", report, wrong_hash)], jobs=1)
        assert pinned[0]["ok"] is False
        assert pinned[0]["session"] == ""
        # ...and matches the uncached scalar verifier's refusal.
        assert verify_report(AttestationReport.decode(report),
                             fleet["devices"]["cl0"],
                             expected_enclave_hash=wrong_hash) is False

    def test_one_byte_change_misses(self, fleet):
        """A same-length report differing in one byte is a different
        content address: it misses, and its verdict is the scalar
        verifier's, not the cached session of its neighbour."""
        svc = _service(fleet)
        report = fleet["pq_reports"][0]
        svc.process([("pq0", report)], jobs=1)      # warm the cache
        tampered = bytearray(report)
        tampered[64 + 8 + 1024 + 4] ^= 0x01     # enclave signature
        tampered = bytes(tampered)
        assert len(tampered) == len(report)
        stats_before = svc.cache_stats()
        got = svc.process([("pq0", tampered)], jobs=1)
        stats_after = svc.cache_stats()
        assert stats_after["hits"] == stats_before["hits"]
        assert stats_after["misses"] == stats_before["misses"] + 1
        want = verify_report(AttestationReport.decode(tampered),
                             fleet["devices"]["pq0"])
        assert want is False
        assert got[0]["ok"] is want
        assert got[0]["session"] == ""

    def test_golden_session_token(self, fleet):
        """The token is ``sha3_256(TOKEN_DOMAIN + sha3_512(KEY_DOMAIN +
        blob))`` over the length-prefixed request parts, byte for byte,
        whichever path mints or serves it: a cold and a warm session
        cache and a drain bypassing it under armed faults, sharded or
        serial."""
        report = fleet["pq_reports"][0]
        identity = fleet["devices"]["pq0"]
        parts = [b"pq0", identity["ed25519"], identity["mldsa"], b"", b"",
                 report]
        blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
        golden = hashlib.sha3_256(
            b"tee-service-token-v1"
            + hashlib.sha3_512(b"tee-service-session-v1" + blob).digest()
        ).hexdigest()

        def run(jobs):
            svc = _service(fleet, max_batch=1)
            requests = [("pq0", report)] * 2
            cold = svc.process(requests, jobs=jobs)
            warm = svc.process(requests, jobs=jobs)
            with injected(FaultSpec("tee.bootrom.measure", BIT_FLIP,
                                    bit=0)):
                bypassed = svc.process(requests, jobs=jobs)
            return " ".join(r["session"]
                            for r in cold + warm + bypassed).encode()

        arms = assert_parity(run, variants=("jobs",))
        assert arms["reference"]["output"] == " ".join([golden] * 6).encode()

    def test_sharded_drain_entries_serve_serial_hits(self, fleet):
        """Entries a ``jobs=2`` drain returns by sequence number are
        keyed in the parent from its own requests, so a serial drain of
        the same requests hits on every one of them."""
        submissions = [("pq0", r) for r in fleet["pq_reports"]] + \
                      [("cl0", r) for r in fleet["cl_reports"]]

        def run(jobs):
            svc = _service(fleet, max_batch=3)
            first = svc.process(submissions, jobs=jobs)
            stats_before = svc.cache_stats()
            assert stats_before["size"] == len(submissions)
            serial = svc.process(submissions, jobs=1)
            stats_after = svc.cache_stats()
            assert stats_after["hits"] == \
                stats_before["hits"] + len(submissions)
            assert stats_after["misses"] == stats_before["misses"]
            return _verdict_bytes(first) + _verdict_bytes(serial)

        assert_parity(run, variants=("jobs",))

    def test_sm_hash_pin_mismatch_rejects(self, fleet):
        svc = AttestationService()
        svc.register_device("cl0", fleet["devices"]["cl0"],
                            expected_sm_hash=bytes(64))
        rejected = svc.process([("cl0", fleet["cl_reports"][0])],
                               jobs=1)
        assert rejected[0]["ok"] is False


class TestServiceParity:

    def test_every_arm_identical(self, fleet):
        """One full service run: results, audit ledger and PERF delta
        are byte-identical between a serial drain and a sharded one,
        cold, warm, with never-hit memos and traced."""
        tampered = bytearray(fleet["pq_reports"][2])
        tampered[100] ^= 0x01
        submissions = ([("pq0", r) for r in fleet["pq_reports"]]
                       + [("cl0", r) for r in fleet["cl_reports"]]
                       + [("pq0", bytes(tampered)),
                          ("ghost", fleet["cl_reports"][0]),
                          ("cl0", fleet["cl_reports"][0]),
                          ("pq0", fleet["pq_reports"][0])])

        def run(jobs):
            return canonical_encode(_service(fleet, max_batch=3).process(
                submissions, jobs=jobs))

        assert_parity(run)

    def test_audit_stream_contents(self, fleet):
        def run(jobs):
            return _service(fleet, max_batch=2).process(
                [("cl0", fleet["cl_reports"][0]),
                 ("ghost", fleet["cl_reports"][0])], jobs=jobs)

        records = json.loads(capture(run, audited=True)["audit"])
        kinds = [r["kind"] for r in records if "kind" in r]
        assert "batch-verified" in kinds
        assert "request-rejected" in kinds
        rejected = next(r for r in records
                        if r.get("kind") == "request-rejected")
        assert rejected["detail"]["reason"] == "unknown-device"
        assert rejected["severity"] == "warning"
        # The exported ledger chain-verifies end to end.
        verify_records(records)


def test_service_counters_count_requests_and_flushes(fleet):
    """``tee.service.*`` counters tally requests, batches, flush causes
    and verdicts."""
    svc = _service(fleet, max_batch=2)
    with counting() as window:
        svc.process([("pq0", fleet["pq_reports"][0]),
                     ("cl0", fleet["cl_reports"][0]),
                     ("ghost", fleet["cl_reports"][0])], jobs=1)
    events = window.delta()
    assert events["tee.service.requests"] == 3
    assert events["tee.service.batches"] == 2
    assert events["tee.service.flush_size"] == 1
    assert events["tee.service.flush_drain"] == 1
    assert events["tee.service.verified"] == 2
    assert events["tee.service.rejected"] == 1
