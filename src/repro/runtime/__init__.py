"""Deterministic parallel execution layer (ISSUE 4).

The throughput backbone under the paper's headline loops: HADES
design-space exploration (Table I runtimes, the 36 h -> <200 s
local-search claim) and fault-injection campaigns both fan out across
worker processes here, under one hard contract — **``jobs=1`` and
``jobs=N`` produce identical outputs** (same optima, byte-identical
campaign JSON, equal merged counter totals).

* :mod:`~repro.runtime.executor` — job resolution (``REPRO_JOBS``),
  deterministic sharding helpers and the fork-state
  :func:`run_sharded` engine (templates with lambda cost functions
  cannot pickle; forked children inherit them),
* :mod:`~repro.runtime.capture` — per-task worker observability
  capture (PERF deltas, finished spans, audit events) merged back
  into the parent facades,
* :mod:`~repro.runtime.memo` — the bounded LRU cache behind the
  adversary campaign's case dedup, the attestation service's session
  cache and the process-wide crypto and boot memos.

Quick use::

    from repro.runtime import run_sharded

    squares = run_sharded(lambda state, x: x * x, None, range(100),
                          jobs=4)

Everything is serial (and zero-overhead) by default; export
``REPRO_JOBS=N`` (or ``auto``) or pass ``jobs=`` explicitly to the
explorers / campaign runner to parallelise.
"""

from .executor import (available_cpus, chunk_bounds, fork_available,
                       resolve_jobs, run_sharded, stride_shards)
from .memo import Memo

__all__ = [
    "available_cpus", "chunk_bounds", "fork_available",
    "resolve_jobs", "run_sharded", "stride_shards",
    "Memo",
]
