"""Keystone-style trusted execution environment with post-quantum
hybrid attestation (paper Section III-B, Table III).

Build a full platform with :func:`~repro.tee.platform.build_tee`, or
compose the pieces directly:

* :class:`~repro.tee.device.Device` — per-device root of trust
* :class:`~repro.tee.bootrom.BootRom` — measured boot + key derivation
* :class:`~repro.tee.sm.SecurityMonitor` — M-mode TCB, PMP, enclaves
* :class:`~repro.tee.attestation.AttestationReport` — report formats
* :mod:`~repro.tee.sealing` — enclave-bound data sealing
"""

from .device import Device
from .bootrom import (BootReport, BootRom, DEFAULT_SECTIONS,
                      PQ_EXTRA_SECTIONS, VerifiedBoot)
from .enclave import Enclave, EnclaveState
from .attestation import (AttestationReport, DEFAULT_REPORT_LEN,
                          pq_report_len, verify_report, verify_reports)
from .sealing import derive_sealing_key, seal, unseal
from .sm import (DEFAULT_SM_STACK, ED25519_SIGNING_STACK, PQ_SM_STACK,
                 KeystoneConfig, SecurityMonitor)
from .service import AttestationService, ServiceRequest
from .platform import TeePlatform, build_tee, synthetic_sm_binary
from .delivery import (AttestedPublisher, DeliveryChannel,
                       DeliveryError, DeliveryOutcome,
                       EnclaveKemIdentity, SealedPackage)
from .realtime import (IntegrationOutcome, convolve_integration,
                       evaluate_all as evaluate_realtime_tee,
                       rtos_inside_tee, tee_inside_rtos)

__all__ = [
    "IntegrationOutcome", "convolve_integration",
    "evaluate_realtime_tee", "rtos_inside_tee", "tee_inside_rtos",
    "AttestedPublisher", "DeliveryChannel", "DeliveryError",
    "DeliveryOutcome", "EnclaveKemIdentity", "SealedPackage",
    "Device", "BootReport", "BootRom", "DEFAULT_SECTIONS",
    "PQ_EXTRA_SECTIONS", "VerifiedBoot",
    "Enclave", "EnclaveState",
    "AttestationReport", "DEFAULT_REPORT_LEN", "pq_report_len",
    "verify_report", "verify_reports",
    "derive_sealing_key", "seal", "unseal",
    "KeystoneConfig", "SecurityMonitor", "DEFAULT_SM_STACK",
    "PQ_SM_STACK", "ED25519_SIGNING_STACK",
    "AttestationService", "ServiceRequest",
    "TeePlatform", "build_tee", "synthetic_sm_binary",
]
