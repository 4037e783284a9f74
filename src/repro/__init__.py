"""repro — a reproduction of the CONVOLVE edge-AI security architecture.

CONVOLVE ("Securing Future Edge-AI Processors in Practice", DATE 2025)
describes the security stack of an ultra-low-power edge-AI SoC project.
This package rebuilds each subsystem the paper reports results for:

* :mod:`repro.hades` — automated design-space exploration of masked
  cryptographic hardware (Tables I and II)
* :mod:`repro.crypto` — Keccak/SHA-3, AES, Ed25519 and ML-DSA from scratch
* :mod:`repro.soc` — the simulated RISC-V SoC substrate (memory, PMP,
  privilege modes)
* :mod:`repro.tee` — a Keystone-style TEE with post-quantum hybrid
  attestation (Table III)
* :mod:`repro.cim` — a digital compute-in-memory macro with a power
  side-channel and the two-phase weight-extraction attack (Figs. 1-2)
* :mod:`repro.rtos` — a FreeRTOS-style kernel hardened with PMP (Fig. 3)
* :mod:`repro.compsoc` — composable execution with virtual execution
  platforms (Section III-E)
* :mod:`repro.core` — the modular security-by-design framework that ties
  the features to use-case requirements (Section II)
* :mod:`repro.obs` — opt-in structured tracing and perf counters for
  every subsystem (no-op by default)
* :mod:`repro.faults` — deterministic seeded fault-injection campaigns
  and the recovery-hardening they measure (no-op by default)
"""

__version__ = "1.0.0"
