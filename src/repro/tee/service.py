"""Attestation-as-a-service: a batching verification frontend.

The paper's Section III-B attestation flow is device-side; the ROADMAP
north star is the *other* end of that link — a verifier serving
millions of edge devices.  This module is that serving tier: an
:class:`AttestationService` that accepts attestation-report
submissions from a registered device fleet, coalesces them in a
deterministic micro-batching queue, and drains whole batches through
the batch crypto kernels (two cross-key ML-DSA ``verify_many`` passes,
Ed25519 RLC ``verify_batch``, each distinct SM certificate verified
once per batch) plus an enclave-session cache.

Determinism is the design axis, same as the rest of the runtime:

* **Admission** — requests get a monotonically increasing sequence
  number; batches are formed purely from admission order and a
  maximum batch size.  No wall clock, no thread scheduling: the same
  submissions always form the same batches.
* **Drain** — sealed batches process independently (optionally across
  ``run_sharded`` fork workers) against the session cache *frozen at
  drain start*; new cache entries are collected and applied by the
  parent in shard order after the drain.  Workers fork with the same
  frozen cache the serial loop reads, so the hit/miss pattern — and
  with it every result byte, audit event and PERF counter — is
  identical for any ``REPRO_JOBS``.
* **Session cache** — addressed by the exact content, not a digest
  of it: the key is the tuple of the device id, its identity keys,
  the enclave and SM measurement pins and the full report bytes
  (which carry the enclave measurement and the SM image hash).  Dict
  equality compares every part, so two different requests never
  share an entry, and a hit costs one lookup with no hashing beyond
  Python's cached ``hash()`` of the parts.  The value holds the
  verdict plus the session token; the token's SHA3-512 input is
  minted from the same parts only when a verification misses.  The
  cache belongs to one service and is frozen for a drain, so its
  warmth is a function of the submissions alone: hits replay no PERF
  delta, and ``crypto.*`` counters count the verification work
  actually done (the counter contract in :mod:`repro.runtime.memo`).
  Hits and misses are reported by
  :meth:`AttestationService.cache_stats`.  The cache sits above the
  fault hook sites and spans of verification, so it follows the
  bypass rule of :func:`repro.runtime.memo.bypassed` (armed FAULTS or
  active telemetry); bypassed verdicts are byte-identical because the
  token is content-derived, not cache-derived.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.keccak import sha3_256, sha3_512
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..runtime.executor import run_sharded
from ..runtime.memo import Memo, bypassed
from .attestation import (DEFAULT_REPORT_LEN, AttestationReport,
                          pq_report_len, verify_reports)

_SESSION_KEY_DOMAIN = b"tee-service-session-v1"
_SESSION_TOKEN_DOMAIN = b"tee-service-token-v1"

#: Session-cache entries a service keeps (least recently used go first).
#: Each key holds a reference to its request's report bytes, so a full
#: cache of hybrid reports (7,472 bytes each) pins about 31 MB.
SESSION_CACHE_SIZE = 4096

#: Offset of the 64-byte SM measurement inside an encoded report
#: (enclave hash, data length, padded data, enclave signature).
_SM_HASH_OFFSET = 64 + 8 + 1024 + 64


@dataclass(frozen=True)
class ServiceRequest:
    """One queued verification request (plain data, picklable)."""

    seq: int
    device_id: str
    report: bytes
    expected_enclave_hash: bytes = None


def _drain_worker(service, batch):
    """Module-level shard entry for :func:`run_sharded` (fork state)."""
    return service._process_batch(batch)


class AttestationService:
    """Deterministic micro-batching frontend over batch verification.

    ``devices`` maps a fleet device id to its
    :meth:`~repro.tee.device.Device.public_identity` dict; requests
    naming an unregistered device are rejected without touching any
    crypto.  ``expected_sm_hashes`` optionally pins the SM measurement
    per device (the :func:`~repro.tee.attestation.verify_report`
    docstring explains why a careful verifier should).

    Queue semantics: :meth:`submit` admits one request; a batch seals
    when ``max_batch`` requests are pending, or when :meth:`drain`
    flushes the tail.  Batches
    then verify via :func:`verify_reports` — one Ed25519 RLC equation
    and two cross-key ML-DSA passes (device certificates, then enclave
    signatures) per batch — with per-request results returned in
    admission order.
    """

    def __init__(self, devices=None, *, max_batch: int = 64):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
        # The two report lengths the prefilter accepts, computed once
        # (``pq_report_len`` reads three ``MLDSAParams`` properties).
        self._report_lens = (DEFAULT_REPORT_LEN, pq_report_len())
        self._devices = {}
        self._expected_sm = {}
        self._cache = Memo(maxsize=SESSION_CACHE_SIZE)
        self._next_seq = 0
        self._pending = []
        self._sealed = []
        for device_id, identity in (devices or {}).items():
            self.register_device(device_id, identity)

    # -- fleet registry ----------------------------------------------------

    def register_device(self, device_id: str, identity: dict,
                        expected_sm_hash: bytes = None) -> None:
        """Register (or update) a fleet device's public identity."""
        if "ed25519" not in identity:
            raise ValueError("device identity needs an ed25519 key")
        self._devices[str(device_id)] = {
            "ed25519": bytes(identity["ed25519"]),
            "mldsa": (bytes(identity["mldsa"])
                      if identity.get("mldsa") else None),
        }
        if expected_sm_hash is not None:
            self._expected_sm[str(device_id)] = bytes(expected_sm_hash)

    # -- admission ---------------------------------------------------------

    def submit(self, device_id: str, report: bytes,
               expected_enclave_hash: bytes = None) -> int:
        """Admit one request; returns its sequence number.

        Admission order is the arrival order of ``submit`` calls —
        callers that need a reproducible interleaving (the bench's
        seeded client mix) order their submissions deterministically
        and the queue preserves that order exactly.
        """
        seq = self._next_seq
        self._next_seq += 1
        if PERF.enabled:
            PERF.inc("tee.service.requests")
        self._pending.append(ServiceRequest(
            seq=seq, device_id=str(device_id), report=bytes(report),
            expected_enclave_hash=(bytes(expected_enclave_hash)
                                   if expected_enclave_hash is not None
                                   else None)))
        if len(self._pending) >= self.max_batch:
            self._seal("size")
        return seq

    def _seal(self, cause: str) -> None:
        if not self._pending:
            return
        if PERF.enabled:
            PERF.inc("tee.service.batches")
            PERF.inc(f"tee.service.flush_{cause}")
        self._sealed.append(self._pending)
        self._pending = []

    # -- session cache -----------------------------------------------------

    def _session_key(self, request: ServiceRequest,
                     identity: dict) -> tuple:
        """Content address of one verification: the device id, its
        identity keys, the policy pins and the full report bytes (which
        carry the enclave measurement and the SM image hash).

        The tuple has two roles.  It is the session cache's exact key:
        a lookup hashes nothing beyond the parts' cached ``hash()`` and
        compares every byte.  And its parts are the input of the
        session token, which :meth:`_session_token` mints only when a
        verification misses the cache.
        """
        return (request.device_id,
                identity["ed25519"],
                identity["mldsa"] or b"",
                request.expected_enclave_hash or b"",
                self._expected_sm.get(request.device_id) or b"",
                request.report)

    @staticmethod
    def _session_token(key: tuple) -> bytes:
        """The verified-session token of a :meth:`_session_key`:
        ``sha3_256`` over the SHA3-512 digest of the key's
        length-prefixed parts.  Only a verified miss (cached or
        bypassed) mints it; a hit returns the stored token.  It depends
        on the content alone, so cached, fresh and bypassed
        verifications of the same request mint the same token."""
        device_id, *rest = key
        blob = b"".join(len(p).to_bytes(4, "big") + p
                        for p in (device_id.encode(), *rest))
        return sha3_256(_SESSION_TOKEN_DOMAIN
                        + sha3_512(_SESSION_KEY_DOMAIN + blob))

    def cache_stats(self) -> dict:
        """Hit/miss/eviction statistics of the session cache (service-
        local diagnostics; deliberately not PERF counters)."""
        return self._cache.stats()

    # -- drain -------------------------------------------------------------

    def drain(self, jobs: int = None) -> list:
        """Process every sealed batch (sealing the pending tail first)
        and return all results in admission order.

        Batches fan out across ``run_sharded`` workers when ``jobs``
        (or ``REPRO_JOBS``) asks for it.  All batches — serial or
        parallel — read the session cache as frozen at drain start;
        entries minted by the drain are merged afterwards in shard
        order with first-writer-wins dedup.  That freeze is what makes
        the hit/miss pattern (and therefore results, audit events and
        counters) byte-identical for any worker count: a forked worker
        could never observe a sibling batch's insertions anyway, so
        the serial loop must not either.

        Batches return their new entries by sequence number, and the
        keys are built here from the drain's own request objects: no
        report travels back from a worker, and the cache references the
        caller's report bytes instead of copies.
        """
        self._seal("drain")
        batches, self._sealed = self._sealed, []
        if not batches:
            return []
        outs = run_sharded(_drain_worker, self, batches, jobs=jobs)
        results = []
        for batch, (batch_results, entries) in zip(batches, outs):
            results.extend(batch_results)
            if not entries:
                continue
            requests = {request.seq: request for request in batch}
            for seq, entry in entries:
                request = requests[seq]
                key = self._session_key(request,
                                        self._devices[request.device_id])
                # __contains__ skips the hit/miss accounting: the merge
                # is bookkeeping, not a cache access.
                if key not in self._cache:
                    self._cache.store(key, entry)
        results.sort(key=lambda r: r["seq"])
        return results

    def process(self, requests, jobs: int = None) -> list:
        """Submit ``(device_id, report_bytes)`` pairs (or 3-tuples with
        an expected enclave hash) and drain; results in input order."""
        for request in requests:
            self.submit(*request)
        return self.drain(jobs=jobs)

    # -- batch verification (runs inside drain workers) --------------------

    def _process_batch(self, batch):
        """Verify one sealed batch against the frozen session cache.

        Returns ``(results, new_entries)`` — both plain data — where
        ``new_entries`` holds ``(seq, entry)`` cache inserts for the
        parent to key and apply after the drain.  Audit events and PERF
        ticks emitted here are captured and merged in shard order by the
        runtime, so the serial and parallel streams are identical.
        """
        bypass = bypassed()
        with TELEMETRY.span("tee.service.batch", batch=len(batch)):
            lanes = []          # (request, identity, key) to verify
            results = {}        # seq -> result dict
            reasons = {}        # seq -> rejection reason (or None)
            for request in batch:
                identity = self._devices.get(request.device_id)
                if identity is None:
                    results[request.seq] = self._result(request, False,
                                                        b"")
                    reasons[request.seq] = "unknown-device"
                    continue
                if not self._structurally_plausible(request):
                    results[request.seq] = self._result(request, False,
                                                        b"")
                    reasons[request.seq] = "policy-mismatch"
                    continue
                key = self._session_key(request, identity)
                if not bypass:
                    # Hit/miss tallies live in the Memo's own stats
                    # (:meth:`cache_stats`), deliberately NOT in PERF:
                    # a cold and a warm run must tick the same
                    # ``tee.service.*`` counters.
                    found, entry = self._cache.lookup(key)
                    if found:
                        ok, token, reasons[request.seq] = entry
                        results[request.seq] = self._result(request, ok,
                                                            token)
                        continue
                lanes.append((request, identity, key))
            new_entries = []
            if lanes:
                new_entries = self._verify_lanes(lanes, results,
                                                 reasons, bypass)
            verified = sum(1 for r in results.values() if r["ok"])
            if AUDIT.enabled:
                AUDIT.emit("tee.service", "batch-verified",
                           batch=len(batch), verified=verified,
                           rejected=len(batch) - verified)
                for request in batch:
                    reason = reasons.get(request.seq)
                    if reason is not None:
                        AUDIT.emit("tee.service", "request-rejected",
                                   severity="warning",
                                   seq=int(request.seq),
                                   device=request.device_id,
                                   reason=reason)
            if PERF.enabled:
                # Zero-amount ticks are skipped: a worker's capture
                # delta drops zero entries, so minting the key only on
                # the serial path would break serial/parallel parity.
                if verified:
                    PERF.inc("tee.service.verified", verified)
                if len(batch) - verified:
                    PERF.inc("tee.service.rejected",
                             len(batch) - verified)
            ordered = [results[request.seq] for request in batch]
            return ordered, new_entries

    def _verify_lanes(self, lanes, results, reasons, bypass) -> list:
        """Run the fresh lanes through the batch verifier; returns the
        ``(seq, entry)`` session-cache inserts (empty when bypassed)."""
        reports = []
        identities = []
        parsed = []
        for request, identity, key in lanes:
            try:
                report = AttestationReport.decode(request.report)
            except ValueError:
                results[request.seq] = self._result(request, False, b"")
                reasons[request.seq] = "malformed-report"
                continue
            reports.append(report)
            identities.append(identity)
            parsed.append((request, key))
        if not parsed:
            return []
        verdicts = verify_reports(reports, identities)
        new_entries = []
        for (request, key), ok in zip(parsed, verdicts):
            token = self._session_token(key) if ok else b""
            reason = None if ok else "verification-failed"
            results[request.seq] = self._result(request, ok, token)
            reasons[request.seq] = reason
            if not bypass:
                new_entries.append((request.seq, (ok, token, reason)))
        return new_entries

    def _structurally_plausible(self, request: ServiceRequest) -> bool:
        """Policy pre-filter on the raw report bytes — no decode, no
        crypto: length sanity plus the expected-measurement pins the
        scalar verifier would reject anyway."""
        report = request.report
        if len(report) not in self._report_lens:
            return True   # let decode produce the malformed verdict
        if request.expected_enclave_hash is not None and \
                report[:64] != request.expected_enclave_hash:
            return False
        expected_sm = self._expected_sm.get(request.device_id)
        if expected_sm is not None and \
                report[_SM_HASH_OFFSET:_SM_HASH_OFFSET + 64] != \
                expected_sm:
            return False
        return True

    @staticmethod
    def _result(request: ServiceRequest, ok: bool, token: bytes) -> dict:
        return {"seq": int(request.seq),
                "device": request.device_id,
                "ok": bool(ok),
                "session": token.hex()}
