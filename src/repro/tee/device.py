"""Device identity: the per-device unique secret and its key hierarchy.

Keystone's chain of trust starts from "a per-device unique secret, e.g.
stored in a root-of-trust" (paper Section III-B).  The PQ-enabled variant
needs *two* device key pairs (Ed25519 and ML-DSA), and — to keep the
bootrom small — the ML-DSA key is stored as a 32-byte seed and
regenerated deterministically during boot.
"""

from __future__ import annotations

from ..crypto import ed25519
from ..crypto.kdf import derive_key, derive_seed_pair
from ..crypto.mldsa import ML_DSA_44, MLDSA


class Device:
    """A physical device with a unique root secret.

    Parameters
    ----------
    root_secret:
        32 bytes fused into the root of trust at manufacturing.
    post_quantum:
        Whether the device provisions an ML-DSA identity in addition to
        Ed25519 (the paper's PQ-enabled configuration).
    """

    def __init__(self, root_secret: bytes, post_quantum: bool = False):
        if len(root_secret) != 32:
            raise ValueError("device root secret must be 32 bytes")
        self.post_quantum = post_quantum
        self.mldsa_params = ML_DSA_44
        ed_seed, mldsa_seed = derive_seed_pair(root_secret, "device-keys")
        self.ed25519_seed = ed_seed
        # Keyed signing context: clamped scalar + nonce prefix computed
        # once, so every boot signature is a single fixed-base multiply.
        self._ed_signer = ed25519.SigningKey(ed_seed)
        self.ed25519_public = self._ed_signer.public
        if post_quantum:
            # Stored as a seed; expanded on demand (i.e. at boot) exactly
            # as the paper's bootrom-size mitigation prescribes.
            self.mldsa_seed = mldsa_seed
            scheme = MLDSA(ML_DSA_44)
            self.mldsa_public, self._mldsa_secret = scheme.key_gen(
                mldsa_seed)
        else:
            self.mldsa_seed = None
            self.mldsa_public = None
            self._mldsa_secret = None

    # -- device-key signing (only ever used by the bootrom) ------------

    def sign_classical(self, message: bytes) -> bytes:
        return self._ed_signer.sign(message)

    def derive_sm_secret(self, sm_measurement: bytes) -> bytes:
        """The SM's root secret, bound to the measured SM image.

        A modified SM measures differently and therefore derives
        different keys — the property remote attestation rests on.
        """
        return derive_key(self.ed25519_seed + (self.mldsa_seed or b""),
                          "sm-secret", sm_measurement)

    def public_identity(self) -> dict:
        """What a remote verifier is provisioned with."""
        identity = {"ed25519": self.ed25519_public}
        if self.post_quantum:
            identity["mldsa"] = self.mldsa_public
        return identity
