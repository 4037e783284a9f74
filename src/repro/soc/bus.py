"""Cycle-level shared-resource bus with pluggable arbitration.

The composability substrate (paper Section III-E) needs a shared
resource whose arbitration policy determines whether co-running
applications can interfere with each other's timing.  This bus serves
one request per grant; requestors enqueue transactions and the arbiter
decides, cycle by cycle, who is served.

Three arbiters are provided:

* :class:`FcfsArbiter` — a plain FIFO, maximally interference-prone;
* :class:`RoundRobinArbiter` — work-conserving fair sharing, still
  timing-coupled to co-runners;
* :class:`TdmArbiter` — CompSOC-style time-division multiplexing, the
  composable policy (a requestor's service cycles depend only on its own
  slot table, never on other requestors' load).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..faults.injector import FAULTS
from ..faults.models import BUS_CORRUPT, BUS_DELAY, BUS_DROP
from ..obs.audit import AUDIT
from ..obs.perf import PERF


@dataclass
class Transaction:
    """One bus request from ``requestor``; ``latency`` service cycles.

    ``corrupted`` marks a payload upset visible to ECC/parity at the
    receiver (set only by an injected :data:`BUS_CORRUPT` fault).
    """

    requestor: str
    issued_cycle: int
    latency: int = 1
    completed_cycle: int = None
    tag: object = None
    corrupted: bool = False


class Arbiter:
    """Arbitration policy interface: ``grant(cycle, pending)`` returns
    the requestor served at ``cycle`` or None, where ``pending`` maps
    requestor name -> non-empty deque of transactions."""


class FcfsArbiter(Arbiter):
    """First-come-first-served across all requestors."""

    def grant(self, cycle: int, pending: dict):
        oldest = None
        for name, queue in pending.items():
            head = queue[0]
            key = (head.issued_cycle, name)
            if oldest is None or key < oldest[0]:
                oldest = (key, name)
        return oldest[1] if oldest else None


class RoundRobinArbiter(Arbiter):
    """Work-conserving round-robin over the declared requestor order."""

    def __init__(self, requestors: list):
        self.requestors = list(requestors)
        self._next = 0

    def grant(self, cycle: int, pending: dict):
        if not pending:
            return None
        for offset in range(len(self.requestors)):
            candidate = self.requestors[
                (self._next + offset) % len(self.requestors)]
            if candidate in pending:
                self._next = (self.requestors.index(candidate) + 1) \
                    % len(self.requestors)
                return candidate
        return None


class TdmArbiter(Arbiter):
    """Time-division multiplexing over a fixed slot table.

    Slot ``cycle mod len(table)`` belongs exclusively to
    ``table[slot]``; an idle slot is never donated, which is precisely
    what buys composability at the price of utilisation.
    """

    def __init__(self, slot_table: list):
        if not slot_table:
            raise ValueError("TDM slot table must be non-empty")
        self.slot_table = list(slot_table)

    def grant(self, cycle: int, pending: dict):
        owner = self.slot_table[cycle % len(self.slot_table)]
        if owner not in pending:
            return None
        # A transaction may only start if it finishes within the owner's
        # consecutive slot run; otherwise it would steal cycles from the
        # next slot's owner and destroy composability.
        latency = pending[owner][0].latency
        table_len = len(self.slot_table)
        fits = all(self.slot_table[(cycle + i) % table_len] == owner
                   for i in range(latency))
        return owner if fits else None


@dataclass
class BusStatistics:
    """Per-requestor service accounting."""

    served: int = 0
    total_wait_cycles: int = 0
    completion_times: list = field(default_factory=list)


class SharedBus:
    """A single shared resource serving one transaction at a time.

    ``_waiting`` counts the queued transactions not yet granted, kept
    in step by :meth:`submit` and each grant, so a cycle with nothing
    waiting asks the arbiter nothing."""

    def __init__(self, arbiter: Arbiter):
        self.arbiter = arbiter
        self.cycle = 0
        self._queues = {}
        self._waiting = 0
        self._busy_until = 0
        self._active = None
        self.stats = {}
        self.dropped = []

    def submit(self, transaction: Transaction) -> None:
        if PERF.enabled:
            PERF.inc("soc.bus.requests")
        if FAULTS.enabled:
            spec = FAULTS.fire("soc.bus.submit")
            if spec is not None:
                if spec.model == BUS_DROP:
                    self.dropped.append(transaction)
                    if AUDIT.enabled:
                        AUDIT.emit("soc.bus", "bus-transaction-dropped",
                                   severity="warning",
                                   requestor=transaction.requestor)
                    return
                if spec.model == BUS_CORRUPT:
                    transaction.corrupted = True
                elif spec.model == BUS_DELAY:
                    transaction.latency += max(1, spec.magnitude)
        queue = self._queues.setdefault(transaction.requestor, deque())
        queue.append(transaction)
        self._waiting += 1
        self.stats.setdefault(transaction.requestor, BusStatistics())

    def step(self) -> list:
        """Advance one cycle; returns transactions completed this cycle."""
        completed = []
        if self._active is not None and self.cycle >= self._busy_until:
            transaction = self._active
            transaction.completed_cycle = self.cycle
            stats = self.stats[transaction.requestor]
            stats.served += 1
            stats.total_wait_cycles += (self.cycle
                                        - transaction.issued_cycle)
            stats.completion_times.append(self.cycle)
            completed.append(transaction)
            self._active = None
        if self._active is None and self._waiting:
            pending = {name: queue for name, queue in self._queues.items()
                       if queue}
            granted = self.arbiter.grant(self.cycle, pending)
            if granted is not None:
                transaction = self._queues[granted].popleft()
                self._waiting -= 1
                self._active = transaction
                self._busy_until = self.cycle + transaction.latency
                if PERF.enabled:
                    PERF.inc("soc.bus.grants")
            elif PERF.enabled:
                # Traffic waiting but nobody served: an arbitration
                # stall (e.g. an idle TDM slot that is never donated).
                PERF.inc("soc.bus.stall_cycles")
        if PERF.enabled:
            PERF.inc("soc.bus.cycles")
            if completed:
                PERF.inc("soc.bus.served", len(completed))
                for transaction in completed:
                    PERF.inc("soc.bus.wait_cycles",
                             transaction.completed_cycle
                             - transaction.issued_cycle)
        self.cycle += 1
        return completed

    def run_until_drained(self, max_cycles: int = 1_000_000) -> list:
        """Step until all queues are empty; returns all completions.

        Raises ``RuntimeError`` once ``max_cycles`` is reached with
        traffic still pending — the watchdog that turns a wedged bus
        (e.g. a transaction that can never fit its TDM slot run) into
        a detected fault instead of a hang.
        """
        completed = []
        while self._waiting or self._active is not None:
            if self.cycle >= max_cycles:
                if AUDIT.enabled:
                    AUDIT.emit("soc.bus", "bus-watchdog",
                               severity="critical", cycle=self.cycle,
                               pending=self._waiting)
                raise RuntimeError("bus did not drain within cycle budget")
            completed.extend(self.step())
        return completed
