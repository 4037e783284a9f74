"""Deterministic fault-injection campaigns and recovery hardening.

The CONVOLVE paper reports recovery behaviour anecdotally (the
8 KB -> 128 KB SM stack fix of Section III-B, the RTOS
endure-and-recuperate scenarios of III-D).  This package turns those
anecdotes into systematic, seeded measurements:

* :mod:`~repro.faults.injector` — the global :data:`FAULTS` facade and
  the hook-site engine (**no-op by default**: a disarmed injector
  costs one attribute check, exactly like ``repro.obs.TELEMETRY``);
* :mod:`~repro.faults.models` — the fault-model vocabulary (bit flips,
  bus drop/corrupt/delay, instruction skip, stack smash, wild stores,
  transport faults);
* :mod:`~repro.faults.report` — the outcome taxonomy
  (masked / detected / recovered / silent_corruption / crash) and the
  machine-readable :class:`FaultReport` hardened paths fail closed with;
* :mod:`~repro.faults.campaign` — seeded grid planning, campaign
  execution, classification and canonical-JSON export;
* :mod:`~repro.faults.scenarios` — the standard end-to-end scenarios
  (measured boot + attestation, attested delivery, RTOS protected and
  flat baseline, SoC bus/CPU fabric).  Import it explicitly — it pulls
  in the TEE/RTOS/SoC stacks, which in turn import this package for
  their hook sites, so it must not load eagerly here;
* :mod:`~repro.faults.adversary` — seeded, coverage-guided adversary
  generation and fuzzing over the same subsystems (mutated boot
  images, hostile task programs, delivery replay schedules, bus
  storms) with delta-debug minimized repros.  Import it explicitly
  for the same reason as :mod:`~repro.faults.scenarios`.

Quick use::

    from repro.faults import FAULTS, FaultSpec
    from repro.faults.models import BIT_FLIP

    FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=7))
    try:
        boot = bootrom.boot_verified(sm_binary)
    finally:
        FAULTS.disarm()
    assert not boot.ok                     # fail-closed FaultReport

    from repro.faults.campaign import standard_campaign
    result = standard_campaign(seed=2026, injections=200)
    result.write("fault_campaign.json")
"""

from .campaign import (CampaignResult, FaultPoint, RunRecord, Scenario,
                       classify, plan_injections, run_campaign,
                       standard_campaign)
from .injector import FAULTS, FaultEvent, FaultInjector, FaultSpec
from .models import ALL_MODELS, flip_bit
from .report import ACCEPTABLE_ON_HARDENED, FaultReport, Outcome

__all__ = [
    "FAULTS", "FaultInjector", "FaultSpec", "FaultEvent",
    "ALL_MODELS", "flip_bit",
    "ACCEPTABLE_ON_HARDENED", "FaultReport", "Outcome",
    "CampaignResult", "FaultPoint", "RunRecord", "Scenario",
    "classify", "plan_injections", "run_campaign", "standard_campaign",
]
