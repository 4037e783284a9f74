"""Enclave lifecycle and measurement.

An enclave is a measured binary plus a PMP-isolated slice of DRAM.  Its
identity is the SHA3-512 hash of its initial contents — the value that
appears in attestation reports and that sealing keys are bound to.
"""

from __future__ import annotations

from enum import Enum

from ..crypto.keccak import sha3_512
from ..soc.memory import Region


class EnclaveState(Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    DESTROYED = "destroyed"


class Enclave:
    """One enclave managed by the security monitor.

    The simulator represents the enclave's program as an opaque binary
    (bytes) and models execution via callables that run while the SM has
    switched the hart's PMP into this enclave's context.
    """

    def __init__(self, enclave_id: int, binary: bytes, region: Region):
        self.enclave_id = enclave_id
        self.binary = bytes(binary)
        self.region = region
        self.state = EnclaveState.CREATED
        self.measurement = self.measure(self.binary)

    @staticmethod
    def measure(binary: bytes) -> bytes:
        """The enclave identity hash, over its length-prefixed binary."""
        return sha3_512(b"enclave-measurement-v1"
                        + len(binary).to_bytes(8, "big") + binary)

    def _require_state(self, *allowed: EnclaveState) -> None:
        if self.state not in allowed:
            names = "/".join(s.value for s in allowed)
            raise RuntimeError(
                f"enclave {self.enclave_id} is {self.state.value}, "
                f"needs {names}")

    def mark_running(self) -> None:
        self._require_state(EnclaveState.CREATED, EnclaveState.STOPPED)
        self.state = EnclaveState.RUNNING

    def mark_stopped(self) -> None:
        self._require_state(EnclaveState.RUNNING)
        self.state = EnclaveState.STOPPED

    def mark_destroyed(self) -> None:
        self._require_state(EnclaveState.CREATED, EnclaveState.STOPPED,
                            EnclaveState.RUNNING)
        self.state = EnclaveState.DESTROYED
