"""Outside-in per-layer tracing for the benchmark.

Every layer is timed from here, by replacing the module or class
attribute the program calls through with a timing wrapper and putting
the original back afterwards, so nothing under ``src/`` changes.

Spans live in memory only.  Each op opens a root span; every wrapped
call made inside it pushes a frame on one stack, and its duration is
charged to the caller's child time, so a layer's *self* time is its
duration minus the part its traced callees covered (recursive layers
such as ``Template.evaluate`` included).  Per-call records would not
fit: ``Memo.lookup`` runs hundreds of thousands of times per run.  So
spans aggregate into ``(calls, total, self)`` per ``(op, parent,
layer)`` key, and :meth:`Tracer.write` emits one JSON line per key at
exit.  Calls made outside an op (oracle checks between ops) pass
through untimed.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

#: Every traced layer, in table order.  ``faults.scenarios.*`` names
#: come from the scenario instance at call time.  Work that
#: ``run_sharded`` hands to a worker function is charged to the layer
#: that owns the worker: ``tee.service.batch`` (one sealed batch: the
#: prefilter, cache bookkeeping and results), and the explorers' shard
#: loops under their explorer's name (the exhaustive goal reduction,
#: the local-search descent logic).
LAYERS = (
    "tee.service.process",
    "tee.service.batch",
    "tee.service.session_key",
    "runtime.memo.lookup",
    "runtime.memo.store",
    "runtime.executor.run_sharded",
    "tee.attestation.decode",
    "tee.attestation.verify_reports",
    "crypto.ed25519.verify_batch",
    "crypto.mldsa.verify_many",
    "hades.explorer.exhaustive",
    "hades.template.enumerate_designs",
    "hades.template.cost",
    "hades.explorer.local_search",
    "hades.template.evaluate",
    "hades.explorer.neighbours",
    "faults.campaign.run",
    "faults.scenarios.standard_scenarios",
    "faults.scenarios.boot-attest.execute",
    "faults.scenarios.attested-delivery.execute",
    "faults.scenarios.rtos-protected.execute",
    "faults.scenarios.rtos-flat.execute",
    "faults.scenarios.soc-fabric.execute",
    "faults.campaign.classify",
    "faults.injector.arm",
    "faults.injector.disarm",
    "obs.coverage.observe",
    "obs.perf.snapshot",
    "tee.bootrom.boot_verified",
    "tee.delivery.deliver",
    "rtos.kernel.run",
    "soc.bus.run_until_drained",
    "cim.second_order.run",
    "cim.macro.query_fresh_many",
    "cim.power.measure_many",
)

#: Work counts taken at layer boundaries (besides calls).
COUNTS = (
    "crypto.ed25519.verify_batch.lanes",
    "crypto.ed25519.verify_batch.fallbacks",
    "crypto.mldsa.verify_many.lanes",
    "runtime.memo.lookup.hits",
    "cim.macro.query_fresh_many.traces",
)

#: PERF counters read over the traced timed phase.
PERF_EVENTS = (
    "crypto.ed25519.msm_points",
    "crypto.ed25519.point_adds",
    "crypto.mldsa.ntt_calls",
    "cim.traces_vectorized",
)

ROOT = "op"


class Tracer:
    """In-memory span stack plus per-(op, parent, layer) aggregates."""

    def __init__(self):
        self.stack = []
        self.op = None
        self.spans = {}     # (op, parent, name) -> [calls, total, self, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [[ROOT, perf_counter(), 0.0]]

    def end_op(self) -> float:
        """Close the op's root span; returns its wall seconds."""
        end = perf_counter()
        _, start, child = self.stack.pop()
        wall = end - start
        self.spans[(self.op, None, ROOT)] = [1, wall, wall - child,
                                             start, end]
        self.op = None
        return wall

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1]
        parent[2] += duration
        key = (self.op, parent[0], name)
        record = self.spans.get(key)
        if record is None:
            self.spans[key] = [1, duration, duration - child, start, end]
        else:
            record[0] += 1
            record[1] += duration
            record[2] += duration - child
            record[4] = end

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name, on_return=None):
        """A timing wrapper around ``fn``.  ``name`` is a layer name or
        a callable mapping the call's arguments to one; ``on_return``
        sees ``(result, args)`` to take counts."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            tracer.enter(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if on_return is not None:
                on_return(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name):
        """A wrapper timing each ``next()`` of the generator ``fn``
        returns (one call per item, no span per item)."""
        tracer = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                if not tracer.stack:
                    yield from iterator
                    return
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.leave()
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """``{layer: [calls, self seconds]}`` over every op, with zeros
        for layers this workload never reached."""
        totals = {name: [0, 0.0] for name in LAYERS}
        for (_op, _parent, name), record in self.spans.items():
            if name == ROOT:
                continue
            row = totals.setdefault(name, [0, 0.0])
            row[0] += record[0]
            row[1] += record[2]
        return totals

    def op_wall(self) -> float:
        return sum(record[1] for (_op, _parent, name), record
                   in self.spans.items() if name == ROOT)

    def write(self, path) -> None:
        """One JSON line per aggregated span, in op then start order."""
        rows = sorted(self.spans.items(),
                      key=lambda item: (item[0][0], item[1][3]))
        with open(path, "w") as sink:
            for (op, parent, name), (calls, total, self_s, start,
                                     end) in rows:
                sink.write(json.dumps({
                    "name": name, "parent": parent, "op": op,
                    "start": start, "end": end, "calls": calls,
                    "total_s": total, "self_s": self_s}) + "\n")


class Patcher:
    """Attribute replacement with exact restore (reverse order)."""

    _MISSING = object()

    def __init__(self):
        self._undo = []

    def set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr,
                           vars(target).get(attr, self._MISSING)))
        setattr(target, attr, value)

    def everywhere(self, module, attr: str, wrapper_for) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        imported that same object (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    vars(loaded).get(attr) is original:
                self.set(loaded, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            if value is self._MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, value)


def install(tracer: Tracer, patcher: Patcher, template=None) -> None:
    """Wrap every layer in :data:`LAYERS`.  ``template`` is the
    top-level HADES template whose ``cost`` attribute to time."""
    from repro.cim.macro import DigitalCimMacro
    from repro.cim.power import PowerModel
    from repro.cim.second_order import SecondOrderAttack
    from repro.crypto import ed25519
    from repro.crypto.mldsa import MLDSA
    from repro.faults import campaign, scenarios
    from repro.faults.injector import FaultInjector
    from repro.hades import explorer, template as template_module
    from repro.hades.explorer import ExhaustiveExplorer, \
        LocalSearchExplorer
    from repro.hades.template import Template
    from repro.obs.coverage import CoverageMap
    from repro.obs.perf import PerfCounters
    from repro.rtos.kernel import Kernel
    from repro.runtime import executor
    from repro.runtime.memo import Memo
    from repro.soc.bus import SharedBus
    from repro.tee import attestation, service
    from repro.tee.attestation import AttestationReport
    from repro.tee.bootrom import BootRom
    from repro.tee.delivery import DeliveryChannel

    wrap = tracer.wrap

    def method(cls, attr, name, on_return=None):
        patcher.set(cls, attr, wrap(vars(cls)[attr], name, on_return))

    def function(module, attr, name, on_return=None):
        patcher.everywhere(module, attr,
                           lambda fn: wrap(fn, name, on_return))

    def batch_lanes(result, args):
        tracer.count("crypto.ed25519.verify_batch.lanes", len(result))
        if not all(result):
            tracer.count("crypto.ed25519.verify_batch.fallbacks")

    def memo_hit(result, args):
        if result[0]:
            tracer.count("runtime.memo.lookup.hits")

    method(service.AttestationService, "process", "tee.service.process")
    method(service.AttestationService, "_process_batch",
           "tee.service.batch")
    patcher.set(service, "sha3_512",
                wrap(service.sha3_512, "tee.service.session_key"))
    method(Memo, "lookup", "runtime.memo.lookup", memo_hit)
    method(Memo, "store", "runtime.memo.store")
    function(executor, "run_sharded", "runtime.executor.run_sharded")
    decode = vars(AttestationReport)["decode"].__func__
    patcher.set(AttestationReport, "decode",
                classmethod(wrap(decode, "tee.attestation.decode")))
    function(attestation, "verify_reports",
             "tee.attestation.verify_reports")
    function(ed25519, "verify_batch", "crypto.ed25519.verify_batch",
             batch_lanes)
    method(MLDSA, "verify_many", "crypto.mldsa.verify_many",
           lambda result, args: tracer.count(
               "crypto.mldsa.verify_many.lanes", len(result)))

    method(ExhaustiveExplorer, "run", "hades.explorer.exhaustive")
    function(explorer, "_exhaustive_shard", "hades.explorer.exhaustive")
    patcher.everywhere(template_module, "enumerate_designs",
                       lambda fn: tracer.wrap_generator(
                           fn, "hades.template.enumerate_designs"))
    if template is not None:
        patcher.set(template, "cost",
                    wrap(template.cost, "hades.template.cost"))
    method(LocalSearchExplorer, "run", "hades.explorer.local_search")
    function(explorer, "_local_search_shard",
             "hades.explorer.local_search")
    method(Template, "evaluate", "hades.template.evaluate")
    patcher.everywhere(explorer, "neighbours",
                       lambda fn: tracer.wrap_generator(
                           fn, "hades.explorer.neighbours"))

    function(campaign, "run_campaign", "faults.campaign.run")
    function(scenarios, "standard_scenarios",
             "faults.scenarios.standard_scenarios")
    for cls in (scenarios.BootAttestScenario, scenarios.DeliveryScenario,
                scenarios.RtosScenario, scenarios.SocFabricScenario):
        method(cls, "execute",
               lambda args: f"faults.scenarios.{args[0].name}.execute")
    function(campaign, "classify", "faults.campaign.classify")
    method(FaultInjector, "arm", "faults.injector.arm")
    method(FaultInjector, "disarm", "faults.injector.disarm")
    method(CoverageMap, "observe", "obs.coverage.observe")
    method(PerfCounters, "snapshot", "obs.perf.snapshot")
    method(BootRom, "boot_verified", "tee.bootrom.boot_verified")
    method(DeliveryChannel, "deliver", "tee.delivery.deliver")
    method(Kernel, "run", "rtos.kernel.run")
    method(SharedBus, "run_until_drained", "soc.bus.run_until_drained")

    method(SecondOrderAttack, "run", "cim.second_order.run")
    method(DigitalCimMacro, "query_fresh_many",
           "cim.macro.query_fresh_many",
           lambda result, args: tracer.count(
               "cim.macro.query_fresh_many.traces", len(result)))
    method(PowerModel, "measure_many", "cim.power.measure_many")
