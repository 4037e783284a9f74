"""Property tests for the tamper-evident audit ledger (ISSUE 8).

Pins the three contracts the security-observability plane leans on:

* canonical encoding is a bijection — encode/decode/re-encode is
  byte-identical for every JSON-native value (hypothesis), so the
  hash chain has exactly one valid serialization;
* the chain detects *any* tamper — a flipped bit anywhere in the
  serialized artifact, a dropped record, a reordered pair, and even a
  consistently re-hashed rewrite (which only the Ed25519 checkpoint
  signature can catch);
* worker event bodies merged through the parent chain reproduce the
  serial chain byte for byte (the ``REPRO_JOBS`` parity recipe).
"""

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.audit import (GENESIS, AuditLedger,
                             AuditVerificationError, canonical_encode,
                             chain_hash, load_ledger_records,
                             summarize_records, verify_records)

# -- strategies -----------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=20)


def _sample_ledger(checkpoint_every: int = 3) -> AuditLedger:
    ledger = AuditLedger(enabled=True)
    ledger.checkpoint_every = checkpoint_every
    ledger.emit("tee.boot", "boot-verified", post_quantum=True)
    ledger.emit("tee.boot", "boot-rejected", severity="critical",
                reason="boot-verification-failed")
    ledger.emit("soc.pmp", "pmp-denial", severity="warning",
                access="write", address=4096, size=4)
    ledger.emit("tee.delivery", "delivery-attempt-failed",
                severity="warning", reason="replay", attempt=1)
    ledger.emit("soc.bus", "bus-watchdog", severity="critical",
                cycle=10_000, pending=3)
    ledger.emit("faults.campaign", "hardening-violation",
                severity="critical", scenario="rtos-protected",
                outcome="silent_corruption")
    return ledger


# -- canonical encoding ---------------------------------------------------

class TestCanonicalEncoding:
    @settings(max_examples=80, deadline=None)
    @given(json_values)
    def test_round_trip_byte_identity(self, value):
        encoded = canonical_encode(value)
        assert canonical_encode(json.loads(encoded.decode("ascii"))) == \
            encoded

    def test_sorted_keys_and_compact(self):
        assert canonical_encode({"b": 1, "a": [1, 2]}) == \
            b'{"a":[1,2],"b":1}'

    def test_ascii_only(self):
        encoded = canonical_encode({"msg": "café"})
        assert max(encoded) < 128

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_encode(float("nan"))
        with pytest.raises(ValueError):
            canonical_encode({"x": float("inf")})

    def test_non_json_native_rejected(self):
        with pytest.raises(TypeError):
            canonical_encode({"x": b"bytes"})


# -- chain construction ---------------------------------------------------

class TestChain:
    def test_verify_fresh_ledger(self):
        ledger = _sample_ledger()
        stats = verify_records(ledger.export_records())
        assert stats["events"] == 6
        assert stats["checkpoints"] >= 2
        assert stats["by_subsystem"]["tee.boot"]["critical"] == 1
        assert stats["by_severity"]["critical"] == 3

    def test_empty_ledger_still_exports_and_verifies(self):
        records = AuditLedger(enabled=True).export_records()
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "checkpoint"
        assert verify_records(records)["events"] == 0

    def test_disabled_emit_is_noop(self):
        ledger = AuditLedger(enabled=False)
        assert ledger.emit("tee.boot", "boot-verified") is None
        assert ledger.event_count() == 0

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            AuditLedger(enabled=True).emit("x", "y", severity="fatal")

    def test_head_chains_from_genesis(self):
        ledger = AuditLedger(enabled=True)
        ledger.checkpoint_every = 0
        record = ledger.emit("tee.boot", "boot-verified")
        header = ledger.records()[0]
        head0 = chain_hash(GENESIS, header)
        assert record["prev"] == head0
        assert record["hash"] == chain_hash(
            head0, {"type": "event", "seq": 0,
                    "subsystem": "tee.boot", "kind": "boot-verified",
                    "severity": "info", "detail": {}})

    def test_export_requires_trailing_checkpoint(self):
        ledger = _sample_ledger(checkpoint_every=0)
        records = ledger.records()
        assert records[-1]["type"] == "event"
        with pytest.raises(AuditVerificationError,
                           match="does not end"):
            verify_records(records)
        assert ledger.export_records()[-1]["type"] == "checkpoint"

    def test_write_and_load_round_trip(self, tmp_path):
        ledger = _sample_ledger()
        path = ledger.write(tmp_path / "audit.jsonl")
        records = load_ledger_records(path)
        assert verify_records(records)["events"] == 6
        summary = summarize_records(records)
        assert summary["events"] == 6
        assert summary["by_kind"]["pmp-denial"] == 1


# -- tamper detection -----------------------------------------------------

class TestTamperDetection:
    def _serialized(self) -> bytes:
        lines = [canonical_encode(record)
                 for record in _sample_ledger().export_records()]
        return b"\n".join(lines) + b"\n"

    def _verify_bytes(self, data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "tampered.jsonl"
            path.write_bytes(data)
            verify_records(load_ledger_records(path))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_any_single_bit_flip_detected(self, data):
        serialized = self._serialized()
        position = data.draw(st.integers(0, len(serialized) - 1))
        bit = data.draw(st.integers(0, 7))
        tampered = bytearray(serialized)
        tampered[position] ^= 1 << bit
        with pytest.raises(AuditVerificationError):
            self._verify_bytes(bytes(tampered))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_dropped_record_detected(self, data):
        records = _sample_ledger().export_records()
        index = data.draw(st.integers(0, len(records) - 1))
        with pytest.raises(AuditVerificationError):
            verify_records(records[:index] + records[index + 1:])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_reordered_pair_detected(self, data):
        records = _sample_ledger().export_records()
        index = data.draw(st.integers(0, len(records) - 2))
        swapped = list(records)
        swapped[index], swapped[index + 1] = \
            swapped[index + 1], swapped[index]
        with pytest.raises(AuditVerificationError):
            verify_records(swapped)

    def test_rehashed_rewrite_caught_by_signature(self):
        """An attacker who edits an event and consistently recomputes
        every downstream link still cannot forge the checkpoint
        signature — the reason checkpoints exist at all."""
        records = _sample_ledger(checkpoint_every=0).export_records()
        records[1]["detail"] = dict(records[1]["detail"],
                                    post_quantum=False)
        head = chain_hash(GENESIS, {
            "type": "header",
            "schema_version": records[0]["schema_version"],
            "name": records[0]["name"],
            "public_key": records[0]["public_key"]})
        for record in records[1:]:
            if record["type"] == "checkpoint":
                record["head"] = head
            body = {key: record[key] for key in record
                    if key not in ("prev", "hash")}
            record["prev"] = head
            record["hash"] = chain_hash(head, body)
            head = record["hash"]
        with pytest.raises(AuditVerificationError,
                           match="signature invalid"):
            verify_records(records)

    def test_truncated_tail_detected(self):
        records = _sample_ledger(checkpoint_every=0).export_records()
        with pytest.raises(AuditVerificationError):
            verify_records(records[:-1])

    def test_malformed_line_is_one_line_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header"\nnot json\n')
        with pytest.raises(AuditVerificationError, match="line 1"):
            load_ledger_records(path)

    def test_invalid_utf8_is_one_line_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"type": "hea\xffder"}\n')
        with pytest.raises(AuditVerificationError, match="UTF-8"):
            load_ledger_records(path)


# -- worker merge parity --------------------------------------------------

class TestWorkerMerge:
    def test_merged_bodies_reproduce_serial_chain(self):
        serial = AuditLedger(enabled=True)
        serial.checkpoint_every = 3
        for index in range(7):
            serial.emit("soc.pmp", "pmp-denial", severity="warning",
                        index=index)

        parent = AuditLedger(enabled=True)
        parent.checkpoint_every = 3
        worker = AuditLedger(enabled=True)
        worker.reset_worker()
        worker.enabled = True
        assert worker.checkpoint_every == 0
        mark = worker.mark()
        for index in range(7):
            worker.emit("soc.pmp", "pmp-denial", severity="warning",
                        index=index)
        parent.merge_bodies(worker.bodies_since(mark))

        serial_bytes = [canonical_encode(r)
                        for r in serial.export_records()]
        parent_bytes = [canonical_encode(r)
                        for r in parent.export_records()]
        assert parent_bytes == serial_bytes

    def test_reset_worker_drops_listeners_and_records(self):
        ledger = _sample_ledger()
        seen = []
        ledger.add_listener(seen.append)
        ledger.reset_worker()
        assert ledger.event_count() == 0
        ledger.emit("tee.boot", "boot-verified")
        assert not seen
        assert ledger.enabled    # the switch survives, like PERF's
