"""Bounded memoization, and the one place cached work meets PERF.

:class:`Memo` is a small bounded LRU map from a canonical, hashable
key to a computed value, with hit/miss/eviction accounting so callers
can report how much work the cache removed.  ``None`` is a legal
cached value, so lookups go through :meth:`Memo.lookup`'s ``(found,
value)`` pair rather than a sentinel-default ``get``.

Two kinds of caller use it:

* **Scoped caches** — an adversary campaign's repeated candidate
  cases, an attestation service's verified sessions — call
  :meth:`Memo.lookup` and :meth:`Memo.store` directly.  Their warmth
  is a function of the work handed to the object that owns them, so
  their PERF counters count the work actually done.
* **Process-wide memos** — the measured-boot memo, the SM-image
  measurement memo, the ML-DSA key and context memo, the Ed25519
  per-key table memo, and the result memos of
  :data:`repro.crypto.RESULT_MEMOS` (Ed25519 verdicts, signatures,
  signing contexts and public keys; ML-KEM encapsulations and
  decapsulations; AES-CTR outputs) — outlive any one workload: forked workers and test order see them at different
  warmth.  They go through :meth:`Memo.get_or_build`,
  which records the PERF delta of each build and replays it on every
  hit.

The counter contract both serve: **PERF counters are a function of the
workload, never of process history.**  :meth:`Memo.get_or_build` is the
only cache-side code that may snapshot or merge PERF; an entry built
while PERF was off has no delta to replay, so it is rebuilt the first
time it is hit with PERF on.

The bypass rule, written once in :func:`bypassed`: **a cache whose
build runs fault hook sites or opens timed spans is skipped while
FAULTS is armed or a telemetry subscriber is active**, so an injected
fault takes effect and a trace shows the real span tree (timed spans
cannot be replayed; PERF deltas can).  The measured-boot memo and the
attestation service's session cache follow it.  A memo over code with
neither — the Ed25519 table memo and the result memos over
:mod:`repro.crypto`, which imports no fault injector and opens its
spans outside them, and the SM-image measurement memo, whose fault hook
runs after it — stays on: its value is a function of the key bytes, and
an injection can only change those bytes before they are looked up or
the value after.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs.perf import PERF
from ..obs.telemetry import TELEMETRY


def bypassed() -> bool:
    """Whether a cache over fault hook sites or timed spans must be
    skipped right now: FAULTS is armed or telemetry is active (see the
    module docstring)."""
    if TELEMETRY.enabled:
        return True
    # Imported at call time: repro.faults shards campaigns through this
    # package, so a module-level import would be a cycle.
    from ..faults.injector import FAULTS
    return FAULTS.enabled


class Memo:
    """A bounded least-recently-used ``key -> value`` cache."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._entries

    def lookup(self, key) -> tuple:
        """``(True, value)`` on a hit — refreshing recency — else
        ``(False, None)``; counts the access either way."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def store(self, key, value) -> None:
        """Insert (or refresh) ``key``; evicts the least recently used
        entry when full."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def get_or_build(self, key, build):
        """The cached value for ``key``, running ``build()`` on a miss.

        A miss stores ``(value, delta)``: the PERF delta of the build
        when PERF is on, else ``None``.  A hit merges the stored delta,
        so counter totals are the same cold and warm; a hit on a
        ``None`` delta with PERF on rebuilds.  Builds may nest other
        memos: ``build()`` runs between this memo's lookup and store.
        """
        found, entry = self.lookup(key)
        if found:
            value, delta = entry
            if not PERF.enabled:
                return value
            if delta is not None:
                PERF.merge(delta)
                return value
        if PERF.enabled:
            before = PERF.snapshot()
            value = build()
            delta = PERF.delta_since(before)
        else:
            value, delta = build(), None
        self.store(key, (value, delta))
        return value

    def clear(self) -> None:
        """Drop every entry and zero the accounting: a cleared memo
        behaves exactly like a new one."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
