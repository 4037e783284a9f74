"""Synchronous dataflow (SDF) applications on the composable platform.

CompSOC's "composable implementations simplify verification, as
applications can be verified independently" (paper Section III-E) rests
on two pillars: (a) the platform's per-VEP worst-case resource bounds
(:func:`~repro.compsoc.analysis.worst_case_service_bound`) and (b) a
timing-analysable application model — classically synchronous dataflow
with static-order schedules.  This module provides the model:

* :class:`SdfGraph` — actors with WCETs and memory accesses, channels
  with rates and initial tokens; consistency (repetition vector from
  the balance equations) and deadlock-freedom checks;
* :func:`static_order_schedule` — a single-processor static-order
  schedule for one graph iteration (what runs inside a VEP);
* :func:`iteration_period_bound` — the worst-case iteration period of
  that schedule on a given platform, using only VEP-local quantities —
  co-runners cannot invalidate it, which is exactly why the analysis
  composes;
* :func:`to_application` — compile the schedule into a platform
  :class:`~repro.compsoc.vep.Application` for cycle-level execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import worst_case_service_bound
from .platform import ComposablePlatform
from .vep import Application


@dataclass(frozen=True)
class Actor:
    """One SDF actor: a computation with a WCET and memory traffic."""

    name: str
    wcet: int                 # worst-case compute ticks per firing
    memory_accesses: int = 0  # shared-memory transactions per firing

    def __post_init__(self):
        if self.wcet < 0 or self.memory_accesses < 0:
            raise ValueError(f"actor {self.name}: negative cost")


@dataclass(frozen=True)
class Channel:
    """A FIFO from ``src`` to ``dst`` with SDF rates."""

    src: str
    dst: str
    production: int = 1
    consumption: int = 1
    initial_tokens: int = 0

    def __post_init__(self):
        if self.production < 1 or self.consumption < 1:
            raise ValueError("rates must be positive")
        if self.initial_tokens < 0:
            raise ValueError("negative initial tokens")


class SdfGraph:
    """A synchronous dataflow graph."""

    def __init__(self, name: str = "sdf"):
        self.name = name
        self.actors = {}
        self.channels = []

    def add_actor(self, name: str, wcet: int,
                  memory_accesses: int = 0) -> Actor:
        if name in self.actors:
            raise ValueError(f"duplicate actor {name!r}")
        actor = Actor(name, wcet, memory_accesses)
        self.actors[name] = actor
        return actor

    def connect(self, src: str, dst: str, production: int = 1,
                consumption: int = 1,
                initial_tokens: int = 0) -> Channel:
        for endpoint in (src, dst):
            if endpoint not in self.actors:
                raise ValueError(f"unknown actor {endpoint!r}")
        channel = Channel(src, dst, production, consumption,
                          initial_tokens)
        self.channels.append(channel)
        return channel

    # -- consistency -----------------------------------------------------

    def repetition_vector(self) -> dict:
        """Solve the balance equations; raises on inconsistent rates.

        For every channel: q[src] * production == q[dst] * consumption.
        Returns the smallest positive integer solution.
        """
        if not self.actors:
            raise ValueError("empty graph")
        rates = {name: None for name in self.actors}
        first = next(iter(self.actors))
        rates[first] = Fraction(1)
        # Propagate over channels until fixpoint.
        changed = True
        while changed:
            changed = False
            for channel in self.channels:
                src_rate, dst_rate = rates[channel.src], rates[channel.dst]
                ratio = Fraction(channel.production,
                                 channel.consumption)
                if src_rate is not None and dst_rate is None:
                    rates[channel.dst] = src_rate * ratio
                    changed = True
                elif dst_rate is not None and src_rate is None:
                    rates[channel.src] = dst_rate / ratio
                    changed = True
                elif src_rate is not None and dst_rate is not None:
                    if src_rate * ratio != dst_rate:
                        raise ValueError(
                            f"inconsistent rates on {channel.src}->"
                            f"{channel.dst}")
        disconnected = [n for n, r in rates.items() if r is None]
        for name in disconnected:
            rates[name] = Fraction(1)
        denominator_lcm = 1
        for rate in rates.values():
            denominator_lcm = _lcm(denominator_lcm, rate.denominator)
        scaled = {name: int(rate * denominator_lcm)
                  for name, rate in rates.items()}
        divisor = 0
        for value in scaled.values():
            divisor = _gcd(divisor, value)
        return {name: value // divisor for name, value in scaled.items()}


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _lcm(a: int, b: int) -> int:
    return a * b // _gcd(a, b)


def static_order_schedule(graph: SdfGraph) -> list:
    """A single-processor static-order schedule for one iteration.

    Fires any enabled actor (round-robin for fairness) until every
    actor has fired its repetition count; raises if the graph deadlocks
    before completing an iteration.
    """
    repetitions = graph.repetition_vector()
    remaining = dict(repetitions)
    tokens = {id(c): c.initial_tokens for c in graph.channels}
    schedule = []
    actor_order = list(graph.actors)
    while any(count > 0 for count in remaining.values()):
        fired = False
        for name in actor_order:
            if remaining[name] == 0:
                continue
            inputs = [c for c in graph.channels if c.dst == name]
            if all(tokens[id(c)] >= c.consumption for c in inputs):
                for c in inputs:
                    tokens[id(c)] -= c.consumption
                for c in graph.channels:
                    if c.src == name:
                        tokens[id(c)] += c.production
                remaining[name] -= 1
                schedule.append(name)
                fired = True
        if not fired:
            raise ValueError(
                f"graph {graph.name!r} deadlocks (insufficient initial "
                f"tokens)")
    return schedule


def iteration_period_bound(graph: SdfGraph,
                           platform: ComposablePlatform) -> int:
    """Worst-case ticks for one iteration of the static-order schedule.

    Uses only VEP-local quantities: actor WCETs plus the platform's
    TDM worst-case service bound per memory access.  Because the bound
    does not reference co-runners, the analysis of each application is
    *independent* — the composability argument of Section III-E.
    """
    service_bound = worst_case_service_bound(platform)
    total = 0
    for name in static_order_schedule(graph):
        actor = graph.actors[name]
        total += actor.wcet + actor.memory_accesses * service_bound
    return total


def to_application(graph: SdfGraph, base_address: int,
                   iterations: int = 1) -> Application:
    """Compile the static-order schedule into a platform application.

    Each firing contributes a compute phase (its WCET) and one memory
    phase per access, each access 64 bytes past the last, so completion
    times mark iteration boundaries.
    """
    schedule = static_order_schedule(graph)
    phases = []
    address = base_address
    for _ in range(iterations):
        for name in schedule:
            actor = graph.actors[name]
            if actor.wcet:
                phases.append(("compute", actor.wcet))
            for _ in range(actor.memory_accesses):
                phases.append(("mem", address))
                address += 64

    return Application(f"{graph.name}", phases)


def measure_iteration_periods(graph: SdfGraph,
                              platform: ComposablePlatform,
                              vep, iterations: int = 4) -> list:
    """Run the compiled application and extract per-iteration spans.

    Returns the observed cycle count of each iteration (distance
    between the completions of consecutive iterations' last memory
    accesses).
    """
    accesses_per_iteration = sum(
        graph.actors[name].memory_accesses
        for name in static_order_schedule(graph))
    if accesses_per_iteration == 0:
        raise ValueError("graph performs no memory accesses to observe")
    application = to_application(graph, vep.memory.base, iterations)
    vep.attach(application)
    timelines = platform.run()
    completions = timelines[application.name].completion_cycles
    boundaries = completions[accesses_per_iteration - 1::
                             accesses_per_iteration]
    periods = [b - a for a, b in zip(boundaries, boundaries[1:])]
    if boundaries:
        periods.insert(0, boundaries[0])
    return periods
