"""Secure model deployment: the paper's motivating end-to-end flow.

Run:  python examples/secure_model_deployment.py

A model vendor wants NN weights to run only inside a genuine,
uncompromised device (paper Section III-B: "ensure that only a genuine,
uncompromised devices get access to sensitive data such as model
weights, and even then the data is restricted to an enclave").

Flow (all post-quantum):
1. the device boots its PQ-enabled Keystone stack (measured boot),
2. the enclave generates an ML-KEM-768 key pair and binds the key hash
   into a hybrid-signed attestation report,
3. the vendor verifies the chain (device identity + pinned SM
   measurement + expected enclave measurement + key binding), then
   encapsulates a session secret and encrypts the weights to it,
4. the enclave decapsulates, re-seals the weights for local storage,
   and — running on a core under its own PMP view — loads them from
   enclave memory into the CIM macro for inference; the OS view of
   that memory stays blocked, and destroying the enclave wipes it,
5. negative paths: tampered SM, wrong enclave, swapped KEM key — all
   refused.
"""

import numpy as np

from repro.cim import DigitalCimMacro
from repro.soc.memory import AccessFault
from repro.tee import (AttestedPublisher, EnclaveKemIdentity, build_tee,
                       seal, unseal)

MODEL_WEIGHTS = [3, 14, 15, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3]


def main():
    print("== Secure model deployment (ML-KEM attested delivery) ==")

    # 1. Device-side: boot and create the inference enclave.
    platform = build_tee(b"\x21" * 32, post_quantum=True)
    enclave = platform.sm.create_enclave(b"cim-inference-runtime-v1")
    print(f"device booted; enclave measurement "
          f"{enclave.measurement.hex()[:16]}...")

    # 2. The enclave generates its KEM identity and attests with the
    #    key hash bound into the report.
    kem_identity = EnclaveKemIdentity(seed_d=b"\x5a" * 32,
                                      seed_z=b"\x5b" * 32)
    report = platform.sm.attest_enclave(enclave,
                                        kem_identity.report_binding())
    print(f"attestation report: {len(report.encode())} bytes "
          f"(binds SHA3 of a {len(kem_identity.ek)}-byte ML-KEM key)")

    # 3. Vendor-side: pin device identity + SM + enclave, verify,
    #    encapsulate, encrypt.
    vendor = AttestedPublisher(
        device_identity=platform.device.public_identity(),
        expected_sm_hash=platform.boot_report.sm_measurement,
        expected_enclave_hash=enclave.measurement)
    package = vendor.deliver(report.encode(), kem_identity.ek,
                             bytes(MODEL_WEIGHTS), label=b"model-v1",
                             entropy=b"\x11" * 32)
    assert package is not None, "vendor refused a genuine device!"
    print(f"vendor released: {len(package.kem_ciphertext)} B KEM "
          f"ciphertext + {len(package.sealed_payload)} B sealed model")

    # 4. Enclave-side: decapsulate + decrypt, re-seal locally, infer.
    weights = list(kem_identity.unwrap(package))
    assert weights == MODEL_WEIGHTS
    sealing_key = platform.sm.sealing_key(enclave)
    stored = seal(sealing_key, bytes(12), bytes(weights), b"local")
    restored = unseal(sealing_key, bytes(12), stored, b"local")
    activations = [int(b) for b in
                   np.random.default_rng(0).integers(0, 2, 16)]
    slot = enclave.region.base + len(enclave.binary)

    def infer(hart):
        # Runs in U-mode on the enclave's PMP view: the weights live
        # in enclave memory only.
        hart.store(slot, restored)
        macro = DigitalCimMacro(list(hart.load(slot, len(restored))))
        return macro.operate(activations)[0]

    mac_value = platform.sm.run_enclave(enclave, infer)
    print(f"weights unsealed in-enclave; CIM MAC output: {mac_value}")
    hart = platform.sm.hart
    hart.drop_to(hart.mode.SUPERVISOR)          # back in the OS
    try:
        hart.load(slot, len(restored))
        raise SystemExit("ERROR: the OS read the enclave's weights!")
    except AccessFault:
        print("OS view of the enclave's weights: blocked by PMP")
    finally:
        hart.trap("os-exit")
    platform.sm.destroy_enclave(enclave)
    print("enclave destroyed; its memory (weights included) is wiped")

    # 5a. Tampered SM: measures differently -> report refused, sealing
    #     keys unrelated.
    evil = build_tee(b"\x21" * 32, post_quantum=True, sm_version=666)
    evil_enclave = evil.sm.create_enclave(b"cim-inference-runtime-v1")
    evil_report = evil.sm.attest_enclave(evil_enclave,
                                         kem_identity.report_binding())
    refused = vendor.deliver(evil_report.encode(), kem_identity.ek,
                             bytes(MODEL_WEIGHTS))
    print(f"tampered-SM device refused: {refused is None}")
    assert refused is None
    try:
        unseal(evil.sm.sealing_key(evil_enclave), bytes(12), stored,
               b"local")
        raise SystemExit("ERROR: tampered SM unsealed the weights!")
    except ValueError:
        print("tampered-SM device cannot unseal the stored weights")

    # 5b. Wrong enclave on the genuine device.
    other = platform.sm.create_enclave(b"debug-shell")
    other_report = platform.sm.attest_enclave(
        other, kem_identity.report_binding())
    refused = vendor.deliver(other_report.encode(), kem_identity.ek,
                             bytes(MODEL_WEIGHTS))
    print(f"wrong enclave refused: {refused is None}")
    assert refused is None

    # 5c. MITM swaps the KEM key: binding check catches it.
    mitm = EnclaveKemIdentity(seed_d=b"\x66" * 32, seed_z=b"\x67" * 32)
    refused = vendor.deliver(report.encode(), mitm.ek,
                             bytes(MODEL_WEIGHTS))
    print(f"swapped KEM key refused: {refused is None}")
    assert refused is None

    print("deployment flow complete.")


if __name__ == "__main__":
    main()
