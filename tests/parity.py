"""The parity harness (not collected: no ``test_`` prefix).

:func:`assert_parity` checks two claims for one workload
``run(jobs) -> bytes``, which builds its own scoped objects (service,
campaign, explorer, template) and returns its output bytes: output is
byte-identical serial vs ``REPRO_JOBS=N``, and PERF counters are a
function of the workload, never of process history
(``repro.runtime.memo``).  Its arms vary only process state:

* ``jobs`` — ``run(workers)``, 2 unless the call says otherwise;
  dropped where fork is unavailable;
* ``cold`` — every live :class:`~repro.runtime.Memo` cleared first;
* ``warm`` — a second run straight after the cold one, against it;
* ``never_hit`` — every process-wide memo builds (:func:`never_hits`);
* ``traced`` — telemetry on, so caches over timed spans are bypassed
  (:func:`repro.runtime.memo.bypassed`); with ``jobs``, a traced
  ``run(workers)`` against the traced ``run(1)`` as well;
* ``audited`` — every arm runs with the audit ledger on.

Each arm runs with PERF on and is diffed against its base (the plain
``run(1)`` unless said otherwise) on every artifact both have: the
output, the PERF delta less :data:`POOL_EVENTS`, the audit ledger
export and, traced, the :func:`~repro.obs.collapsed` stacks.
:func:`capture` takes one arm's artifacts, for a test that builds a
state no arm does (one memo never hitting while the others hit).
"""

import gc
from contextlib import contextmanager

import pytest

from repro.obs import AUDIT, canonical_encode, collapsed, counting
from repro.runtime import Memo, fork_available

from helpers import traced as tracing

VARIANTS = ("jobs", "cold", "warm", "never_hit", "traced", "audited")

#: Counters that tick only when a worker pool spins up: the one
#: sanctioned difference between ``run(1)`` and a sharded run.
POOL_EVENTS = ("runtime.pools", "runtime.shards")


class NeverHits:
    """Stand-in for one process-wide memo, or, set as
    ``Memo.get_or_build``, for all of them: every call builds.  Counts
    the calls and records the distinct keys asked for."""

    def __init__(self):
        self.calls = 0
        self.keys = set()

    def get_or_build(self, key, build):
        self.calls += 1
        self.keys.add(key)
        return build()

    def __call__(self, key, build):
        return self.get_or_build(key, build)


@contextmanager
def never_hits(owner=Memo, name="get_or_build"):
    """``owner.name`` is a :class:`NeverHits` in the block; yields it.
    By default every :meth:`Memo.get_or_build` builds: that method
    serves exactly the process-wide memos the PERF contract governs,
    while the scoped caches (``lookup``/``store``) count real work by
    design and keep hitting.  A bench that times one memoized call on
    repeated inputs runs it under ``never_hits(module, name)``, or it
    times memo hits: ``never_hits(ed25519, "VERDICT_MEMO")`` makes
    every ``ed25519.verify`` verify in full."""
    real = getattr(owner, name)
    setattr(owner, name, NeverHits())
    try:
        yield getattr(owner, name)
    finally:
        setattr(owner, name, real)


def _without_pool_events(events: dict) -> dict:
    return {event: count for event, count in sorted(events.items())
            if event not in POOL_EVENTS}


def capture(run, jobs=1, traced=False, audited=False) -> dict:
    """One arm's artifacts: ``run(jobs)``'s output and PERF delta, the
    audit export when ``audited``, the collapsed stacks when
    ``traced``."""
    was = AUDIT.enabled
    AUDIT.enabled = audited
    AUDIT.reset()
    try:
        with tracing(traced) as tracer, counting() as window:
            artifacts = {"output": run(jobs)}
            if traced:
                artifacts["collapsed"] = collapsed([
                    {**record,
                     "events": _without_pool_events(record["events"])}
                    for record in tracer.snapshot()])
        artifacts["perf"] = _without_pool_events(window.delta())
        if audited:
            artifacts["audit"] = canonical_encode(AUDIT.export_records())
    finally:
        AUDIT.reset()
        AUDIT.enabled = was
    return artifacts


def _differing(ours, theirs) -> tuple:
    """The parts of two unequal artifacts that differ."""
    if isinstance(ours, dict):
        keys = {key for key in ours.keys() | theirs.keys()
                if ours.get(key) != theirs.get(key)}
        return ({key: ours.get(key) for key in keys},
                {key: theirs.get(key) for key in keys})
    at = next((index for index, (a, b) in enumerate(zip(ours, theirs))
               if a != b), min(len(ours), len(theirs)))
    return ours[at:at + 80], theirs[at:at + 80]


def assert_parity(run, variants=VARIANTS, workers=2) -> dict:
    """Run ``run`` in the arms ``variants`` names (see the module
    docstring), the sharded ones on ``workers`` workers; raise
    :class:`AssertionError` naming the arm and the artifact on the first
    difference.  Returns ``{arm: artifacts}``, the plain ``run(1)`` as
    ``"reference"``, for checks a test adds."""
    assert set(variants) <= set(VARIANTS), variants
    forks = "jobs" in variants and fork_available()
    if "jobs" in variants and not forks \
            and set(variants) <= {"jobs", "audited"}:
        pytest.skip("the jobs arm needs fork")

    def arm(jobs=1, traced=False):
        return capture(run, jobs, traced, "audited" in variants)

    arms, bases = {"reference": arm()}, {}
    if forks:
        arms["jobs"], bases["jobs"] = arm(jobs=workers), "reference"
    if "cold" in variants or "warm" in variants:
        for memo in gc.get_objects():
            if isinstance(memo, Memo):
                memo.clear()
        arms["cold"] = arm()
        if "cold" in variants:
            bases["cold"] = "reference"
        if "warm" in variants:
            arms["warm"], bases["warm"] = arm(), "cold"
    if "never_hit" in variants:
        with never_hits():
            arms["never_hit"], bases["never_hit"] = arm(), "reference"
    if "traced" in variants:
        arms["traced"], bases["traced"] = arm(traced=True), "reference"
        if forks:
            arms["traced jobs"] = arm(jobs=workers, traced=True)
            bases["traced jobs"] = "traced"
    for name, base in bases.items():
        for artifact in arms[base].keys() & arms[name].keys():
            ours, theirs = arms[name][artifact], arms[base][artifact]
            if ours != theirs:
                raise AssertionError(
                    f"{name} arm: {artifact} differs from the {base} arm: "
                    "%r != %r" % _differing(ours, theirs))
    return arms
