"""Machine-readable fault outcomes and failure reports.

Outcome taxonomy (standard in the fault-injection literature):

* **masked** — the fault fired (or never triggered) and the
  architectural result is identical to the golden run;
* **detected** — some checker saw the fault and the system failed
  closed (verification returned False, a typed error was raised, a PMP
  trap contained the offender);
* **recovered** — the fault was observed *and repaired*: the final
  result matches the golden run after an explicit retry/containment;
* **silent_corruption** — the run "succeeded" but produced a result
  that differs from the golden run: the worst class, the one hardening
  must drive to zero;
* **crash** — an exception no handler owned escaped the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Outcome(Enum):
    """Classification of one fault-injection run."""

    MASKED = "masked"
    DETECTED = "detected"
    RECOVERED = "recovered"
    SILENT_CORRUPTION = "silent_corruption"
    CRASH = "crash"


#: Outcomes acceptable on a hardened path (nothing silent, nothing
#: uncontained).
ACCEPTABLE_ON_HARDENED = frozenset({Outcome.MASKED, Outcome.DETECTED,
                                    Outcome.RECOVERED})


@dataclass
class FaultReport:
    """Fail-closed failure record a hardened component hands back.

    Instead of letting a raw exception (or a silently wrong value)
    escape, hardened paths — e.g. :meth:`repro.tee.bootrom.BootRom.
    boot_verified` — return this machine-readable report so callers
    can log, count and react without parsing strings.
    """

    component: str
    outcome: Outcome
    reason: str = ""
    detail: str = ""
    events: tuple = ()
