"""The composable platform: VEPs over a shared TDM interconnect.

The cycle-level execution model: every application alternates compute
phases (local, no shared resource) and memory transactions on the
single shared bus.  The arbitration policy decides whether co-runners
can influence each other's timing:

* ``TdmArbiter`` with one slot per VEP — the CompSOC design, composable;
* ``RoundRobinArbiter`` / ``FcfsArbiter`` — work-conserving baselines,
  higher utilisation but interference-prone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import TELEMETRY
from ..obs.perf import PERF
from ..soc.bus import (FcfsArbiter, RoundRobinArbiter, SharedBus,
                       TdmArbiter, Transaction)
from ..soc.memory import Region
from .vep import Application, VepViolation, VirtualExecutionPlatform

DEFAULT_MEMORY_LATENCY = 2     # service cycles per transaction
MEMORY_LATENCY = DEFAULT_MEMORY_LATENCY


@dataclass
class AppTimeline:
    """Cycle-accurate observable behaviour of one application."""

    name: str
    completion_cycles: list = field(default_factory=list)
    issue_cycles: list = field(default_factory=list)
    finished_cycle: int = None
    violations: list = field(default_factory=list)


class _AppState:
    def __init__(self, application: Application):
        self.application = application
        self.phase_index = 0
        self.compute_remaining = 0
        self.waiting = False
        self.timeline = AppTimeline(application.name)
        self._load_phase()

    def _load_phase(self):
        phases = self.application.phases
        while self.phase_index < len(phases):
            kind, value = phases[self.phase_index]
            if kind == "compute":
                if value > 0:
                    self.compute_remaining = value
                    return
                self.phase_index += 1
            else:
                return
        # no phases left

    @property
    def done(self) -> bool:
        return self.phase_index >= len(self.application.phases) and \
            not self.waiting

    def current_phase(self):
        return self.application.phases[self.phase_index]


class ComposablePlatform:
    """VEPs sharing one memory interconnect."""

    def __init__(self, policy: str = "tdm"):
        if policy not in ("tdm", "round_robin", "fcfs"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.memory_latency = DEFAULT_MEMORY_LATENCY
        self.veps = []
        self._next_base = 0x1000_0000

    def create_vep(self, name: str) -> VirtualExecutionPlatform:
        """A VEP with 1 MiB of private memory and ``memory_latency``
        consecutive TDM slots (CompSOC principle: a slot run must fit
        the worst-case transaction)."""
        memory_bytes = 1 << 20
        region = Region(f"{name}.mem", self._next_base, memory_bytes)
        self._next_base += memory_bytes
        vep = VirtualExecutionPlatform(name, region, self.memory_latency)
        self.veps.append(vep)
        return vep

    def _build_bus(self) -> SharedBus:
        names = [vep.name for vep in self.veps]
        if self.policy == "tdm":
            table = []
            for vep in self.veps:
                table.extend([vep.name] * vep.slot_count)
            return SharedBus(TdmArbiter(table))
        if self.policy == "round_robin":
            return SharedBus(RoundRobinArbiter(names))
        return SharedBus(FcfsArbiter())

    def run(self) -> dict:
        """Simulate until every application finishes (or 100,000 cycles
        pass).

        Returns ``{application name: AppTimeline}``.
        """
        with TELEMETRY.span("compsoc.run", policy=self.policy,
                            veps=len(self.veps)) as span:
            timelines, bus = self._run(100_000)
            if PERF.enabled:
                PERF.inc("compsoc.runs")
                PERF.inc("compsoc.cycles", bus.cycle)
                PERF.inc("compsoc.transactions",
                         sum(s.served for s in bus.stats.values()))
            if TELEMETRY.enabled:
                self._record_utilization(bus, span)
            return timelines

    def _record_utilization(self, bus: SharedBus, span) -> None:
        """TDM slot utilisation: service cycles consumed / cycles
        elapsed (per requestor and overall), and the transactions each
        requestor was served."""
        cycles = max(bus.cycle, 1)
        busy = 0
        for name, stats in bus.stats.items():
            served_cycles = stats.served * self.memory_latency
            busy += served_cycles
            span.set_attr(f"utilization.{name}", served_cycles / cycles)
            span.set_attr(f"transactions.{name}", stats.served)
        span.set_attr("cycles", bus.cycle)
        span.set_attr("utilization", busy / cycles)

    def _run(self, max_cycles: int) -> tuple:
        bus = self._build_bus()
        states = []
        for vep in self.veps:
            for application in vep.applications:
                states.append(_AppState(application))
        by_requestor = {}
        for state in states:
            by_requestor.setdefault(
                state.application.vep.name, []).append(state)
        pending_by_tag = {}
        cycle = 0
        while cycle < max_cycles and not all(s.done for s in states):
            completed = bus.step()
            now = bus.cycle - 1     # the cycle the step served
            for transaction in completed:
                state = pending_by_tag.pop(transaction.tag)
                state.waiting = False
                state.timeline.completion_cycles.append(
                    transaction.completed_cycle)
                state.phase_index += 1
                state._load_phase()
            for state in states:
                if state.done:
                    if state.timeline.finished_cycle is None:
                        state.timeline.finished_cycle = now
                    continue
                if state.waiting:
                    continue
                if state.compute_remaining > 0:
                    state.compute_remaining -= 1
                    if state.compute_remaining == 0:
                        state.phase_index += 1
                        state._load_phase()
                    continue
                if state.phase_index < len(state.application.phases):
                    kind, address = state.current_phase()
                    if kind == "mem":
                        vep = state.application.vep
                        try:
                            vep.check_access(address)
                        except VepViolation as violation:
                            state.timeline.violations.append(
                                str(violation))
                            state.phase_index += 1
                            state._load_phase()
                            continue
                        tag = (state.application.name,
                               len(state.timeline.completion_cycles))
                        transaction = Transaction(
                            vep.name, issued_cycle=now + 1,
                            latency=self.memory_latency, tag=tag)
                        bus.submit(transaction)
                        state.timeline.issue_cycles.append(now + 1)
                        pending_by_tag[tag] = state
                        state.waiting = True
            cycle += 1
        timelines = {}
        for state in states:
            if state.done and state.timeline.finished_cycle is None:
                state.timeline.finished_cycle = bus.cycle
            timelines[state.application.name] = state.timeline
        return timelines, bus
