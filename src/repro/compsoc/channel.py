"""Secure inter-VEP / external communication channels.

Paper Section III-E: "a root of trust must be established and security
features for signing and encryption implemented at the user and system
level.  These security features are required for use cases where
applications need to transmit information between the composable VEPs
and a third party or for software updates at the application or system
level."

The channel construction reuses the crypto substrate: per-VEP keys are
derived from the platform root of trust, payloads are AEAD-sealed and
(for messages leaving the platform) hybrid-signed so a remote party
with the platform's public identity can authenticate them even against
a quantum adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import hybrid
from ..crypto.aes import open_aead, seal_aead
from ..crypto.kdf import derive_key, derive_seed_pair


class PlatformRootOfTrust:
    """The system-level key hierarchy of a composable platform."""

    def __init__(self, root_secret: bytes):
        if len(root_secret) != 32:
            raise ValueError("root secret must be 32 bytes")
        self._root = root_secret
        ed_seed, mldsa_seed = derive_seed_pair(root_secret,
                                               "compsoc-platform")
        self._signer = hybrid.HybridKeyPair(ed_seed, mldsa_seed)

    @property
    def public_identity(self) -> hybrid.HybridPublicKey:
        return self._signer.public

    def channel_key(self, vep_a: str, vep_b: str) -> bytes:
        """Pairwise key for an inter-VEP channel (order-independent)."""
        first, second = sorted((vep_a, vep_b))
        return derive_key(self._root, "inter-vep",
                          f"{first}|{second}".encode("utf-8"))

    def sign_external(self, message: bytes) -> bytes:
        """Hybrid-sign a message leaving the platform."""
        return self._signer.sign(message)


@dataclass
class SealedMessage:
    """An encrypted (and optionally signed) message."""

    sender: str
    recipient: str
    nonce: bytes
    ciphertext: bytes
    signature: bytes = b""


class InterVepChannel:
    """Confidential, authenticated messaging between two VEPs."""

    def __init__(self, root: PlatformRootOfTrust, vep_a: str, vep_b: str):
        self.root = root
        self.endpoints = (vep_a, vep_b)
        self._key = root.channel_key(vep_a, vep_b)
        self._send_counter = 0

    def _nonce(self) -> bytes:
        nonce = self._send_counter.to_bytes(12, "big")
        self._send_counter += 1
        return nonce

    def send(self, sender: str, payload: bytes) -> SealedMessage:
        if sender not in self.endpoints:
            raise ValueError(f"{sender!r} is not on this channel")
        recipient = (self.endpoints[1] if sender == self.endpoints[0]
                     else self.endpoints[0])
        nonce = self._nonce()
        header = f"{sender}->{recipient}".encode("utf-8")
        ciphertext = seal_aead(self._key, nonce, payload, header)
        return SealedMessage(sender=sender, recipient=recipient,
                             nonce=nonce, ciphertext=ciphertext)

    def receive(self, message: SealedMessage) -> bytes:
        header = f"{message.sender}->{message.recipient}".encode("utf-8")
        return open_aead(self._key, message.nonce, message.ciphertext,
                         header)


class ExternalChannel:
    """Messages from a VEP to a remote third party: sealed under the
    VEP key and hybrid-signed by the platform so the remote verifier
    can check provenance."""

    def __init__(self, root: PlatformRootOfTrust, vep_name: str,
                 shared_secret: bytes):
        self.root = root
        self.vep_name = vep_name
        self._key = derive_key(shared_secret, "external-channel",
                               vep_name.encode("utf-8"))
        self._counter = 0

    def send(self, payload: bytes) -> SealedMessage:
        nonce = self._counter.to_bytes(12, "big")
        self._counter += 1
        ciphertext = seal_aead(self._key, nonce, payload,
                               self.vep_name.encode("utf-8"))
        signature = self.root.sign_external(nonce + ciphertext)
        return SealedMessage(sender=self.vep_name, recipient="remote",
                             nonce=nonce, ciphertext=ciphertext,
                             signature=signature)

    @staticmethod
    def verify_and_open(message: SealedMessage,
                        platform_identity: hybrid.HybridPublicKey,
                        shared_secret: bytes) -> bytes:
        """Remote-side: check the hybrid signature, then decrypt."""
        if not hybrid.verify(platform_identity,
                             message.nonce + message.ciphertext,
                             message.signature):
            raise ValueError("platform signature invalid")
        key = derive_key(shared_secret, "external-channel",
                         message.sender.encode("utf-8"))
        return open_aead(key, message.nonce, message.ciphertext,
                         message.sender.encode("utf-8"))
