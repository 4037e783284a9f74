"""The global fault injector: armed faults fire at named hook sites.

Design rule (same as the :data:`repro.obs.TELEMETRY` facade from
ISSUE 1): *a disarmed injector costs one attribute check*.  Every hook
site in the production code is written as

    if FAULTS.enabled:
        data = FAULTS.corrupt("soc.memory.read", data)

so an unmodified run — the default — has identical behaviour with or
without :mod:`repro.faults` imported.

A hook *site* is a stable string name ("soc.bus.submit",
"tee.bootrom.measure", ...).  Arming installs one or more
:class:`FaultSpec` objects; each visit of a site bumps a per-site
counter, and a spec fires on visits ``trigger .. trigger+count-1``.
Everything a fired fault does is a pure function of the spec (bit
index, magnitude), so campaigns driven by a seeded RNG are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.audit import AUDIT
from ..obs.perf import PERF
from .models import ALL_MODELS, BIT_FLIP, flip_bit


@dataclass(frozen=True)
class FaultSpec:
    """One planted fault: where, what, and when it fires.

    Parameters
    ----------
    site:
        Hook-site name the fault is bound to.
    model:
        One of the :mod:`repro.faults.models` constants.
    trigger:
        Zero-based site visit on which the fault first fires.
    count:
        Number of consecutive visits the fault stays active for
        (``count > 1`` models a persistent fault, e.g. a stuck line).
    bit:
        Bit index for corruption models (reduced modulo the target's
        width at the hook site).
    magnitude:
        Model-specific size: delay cycles, extra stack bytes, ...
    """

    site: str
    model: str
    trigger: int = 0
    count: int = 1
    bit: int = 0
    magnitude: int = 1

    def __post_init__(self):
        if self.model not in ALL_MODELS:
            raise ValueError(f"unknown fault model {self.model!r}")
        if self.trigger < 0 or self.count < 1:
            raise ValueError("trigger must be >= 0 and count >= 1")


@dataclass(frozen=True)
class FaultEvent:
    """One actual firing of an armed fault at a site visit."""

    site: str
    model: str
    visit: int
    detail: str = ""
    spec: FaultSpec = None


class FaultInjector:
    """Deterministic single-fault (or multi-fault) injection engine."""

    def __init__(self):
        self.enabled = False
        self._specs = ()
        self._visits = {}
        self.events = []

    # -- arming ---------------------------------------------------------

    def arm(self, *specs: FaultSpec) -> "FaultInjector":
        """Install ``specs`` and reset visit counters and events."""
        self._specs = tuple(specs)
        self._visits = {}
        self.events = []
        self.enabled = bool(self._specs)
        if PERF.enabled and specs:
            PERF.inc("faults.armed", len(specs))
        if AUDIT.enabled and specs:
            AUDIT.emit("faults.injector", "fault-armed",
                       specs=len(specs),
                       sites=sorted({s.site for s in specs}),
                       models=sorted({s.model for s in specs}))
        return self

    def disarm(self) -> tuple:
        """Deactivate all faults; returns the events that fired."""
        events = tuple(self.events)
        if AUDIT.enabled and self._specs:
            AUDIT.emit("faults.injector", "fault-disarmed",
                       fired=len(events))
        self.enabled = False
        self._specs = ()
        self._visits = {}
        self.events = []
        return events

    # -- hook-site API --------------------------------------------------

    def _match(self, site: str):
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        for spec in self._specs:
            if spec.site == site and \
                    spec.trigger <= visit < spec.trigger + spec.count:
                return spec, visit
        return None, visit

    def fire(self, site: str):
        """Generic trigger: record and return the matching spec.

        The hook site interprets the returned spec's ``model`` itself
        (drop a transaction, skip a call, smash a stack, ...); returns
        None when nothing fires at this visit.
        """
        spec, visit = self._match(site)
        if spec is None:
            return None
        if PERF.enabled:
            PERF.inc("faults.fired")
        self.events.append(FaultEvent(site=site, model=spec.model,
                                      visit=visit, spec=spec))
        return spec

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Bit-flip hook for byte strings; identity when nothing fires.

        Only :data:`~repro.faults.models.BIT_FLIP` specs apply here;
        the flipped bit is ``spec.bit`` reduced modulo the data width.
        """
        spec, visit = self._match(site)
        if spec is None or spec.model != BIT_FLIP or not data:
            return data
        if PERF.enabled:
            PERF.inc("faults.fired")
        bit = spec.bit % (len(data) * 8)
        self.events.append(FaultEvent(site=site, model=spec.model,
                                      visit=visit, detail=f"bit={bit}",
                                      spec=spec))
        return flip_bit(data, bit)


#: The process-global injector every hook site consults.
FAULTS = FaultInjector()

