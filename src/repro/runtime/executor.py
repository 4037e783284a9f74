"""Deterministic work-sharding executor: serial by default, processes
on request.

The paper's headline HADES numbers are *throughput* numbers (Table I
exhaustive-DSE runtime, the 36 h -> <200 s local-search claim), and
fault campaigns are embarrassingly parallel grids — so the hot loops of
this reproduction fan out across worker processes.  The discipline that
makes that safe is the same one the campaign JSON already pins:
**identical outputs for any worker count**.  Every parallel entry point
in the repo is therefore written as

    shard the index space deterministically
    -> reduce each shard independently
    -> merge shard results in index order with commutative reductions

so ``jobs=1`` and ``jobs=N`` are provably the same function.

The engine is :func:`run_sharded`: ``worker(state, shard)`` per
shard, fanned across a :class:`~concurrent.futures.ProcessPoolExecutor`
when jobs > 1, where ``state`` is shipped to workers by **fork
inheritance**, not pickling.  HADES templates hold lambda cost
functions and are unpicklable by design; a forked child inherits them
for free.  On platforms without ``fork`` the executor degrades to
serial (same results, no speedup).

Job count resolution: an explicit ``jobs=`` argument always wins;
otherwise ``REPRO_JOBS`` (``auto`` = one per available CPU) is
consulted, scaled down when the work is too small to amortise a pool
(``min_work_per_job``), and defaults to 1 — serial, zero overhead,
exactly the pre-parallel code path.

Observability crosses the process boundary explicitly: each worker
task captures its :data:`~repro.obs.PERF` counter delta, finished
spans and audit events (:mod:`repro.runtime.capture`) and the parent
merges them, so counter totals are identical for any worker
count and worker spans nest under the span that fanned out.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from ..obs.perf import PERF
from .capture import capture_begin, capture_end, merge_capture, \
    worker_setup

#: (worker, state) inherited by forked pool workers; only set while a
#: pool is alive.  Fork inheritance is what lets unpicklable state
#: (templates with lambda cost functions) cross into workers.
_FORK_STATE = None

#: Set in pool workers so nested code never re-resolves REPRO_JOBS and
#: forks a pool inside a pool.
_IN_WORKER = False


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:                      # non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _env_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "").strip().lower()
    if raw in ("", "0", "1"):
        return 1
    if raw in ("auto", "max"):
        return available_cpus()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def resolve_jobs(jobs: int = None, work: int = None,
                 min_work_per_job: int = 1) -> int:
    """The effective worker count for one parallel entry point.

    * explicit ``jobs`` always wins (tests force the parallel path on
      arbitrarily small inputs with it);
    * otherwise ``REPRO_JOBS`` applies, but is scaled down so every
      worker gets at least ``min_work_per_job`` of the ``work`` items —
      a 14-point design space under ``REPRO_JOBS=4`` stays serial;
    * inside a pool worker the answer is always 1 (no nested pools);
    * without ``fork`` support the answer is 1 (deterministic fallback).
    """
    if _IN_WORKER:
        return 1
    if jobs is None:
        jobs = _env_jobs()
        if jobs > 1 and work is not None and min_work_per_job > 0:
            jobs = min(jobs, max(1, work // min_work_per_job))
    jobs = max(1, int(jobs))
    if jobs > 1 and not fork_available():
        return 1
    return jobs


def chunk_bounds(total: int, parts: int) -> list:
    """``[(lo, hi), ...]`` splitting ``range(total)`` into at most
    ``parts`` contiguous, near-equal, non-empty chunks."""
    parts = max(1, min(parts, total)) if total else 1
    if total <= 0:
        return []
    base, extra = divmod(total, parts)
    bounds, lo = [], 0
    for part in range(parts):
        hi = lo + base + (1 if part < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def stride_shards(jobs: int) -> list:
    """``[(offset, step), ...]`` interleaved shards: shard ``k`` owns
    global indices ``k, k+jobs, k+2*jobs, ...`` — balanced regardless
    of how cost varies along the index space."""
    jobs = max(1, jobs)
    return [(offset, jobs) for offset in range(jobs)]


def _worker_init():
    global _IN_WORKER
    _IN_WORKER = True
    worker_setup()


def _fork_entry(shard):
    worker, state = _FORK_STATE
    mark = capture_begin()
    result = worker(state, shard)
    return result, capture_end(mark)


def run_sharded(worker, state, shards, jobs: int = None,
                fold=None) -> list:
    """``[worker(state, shard) for shard in shards]``, fanned across
    processes; results come back in shard order.

    ``state`` reaches workers by fork inheritance and may therefore be
    unpicklable; ``shards`` and each shard's *result* must pickle
    (keep them plain data).  Worker-side PERF/telemetry activity is
    captured per task and merged into the parent in shard order before
    returning, so observable counter totals match a serial run.

    ``fold`` turns the call into a bounded-memory streaming reduction:
    each shard result is passed to ``fold(result)`` the moment it (and
    its telemetry capture) is merged — still in shard order — instead
    of being accumulated, and the call returns ``None``.  This is the
    corpus-merge hook for campaign-scale consumers: the parent folds
    each chunk's records/coverage into its aggregates while at most
    one shard payload is in flight, serially and in parallel alike.
    """
    shards = list(shards)
    jobs = resolve_jobs(jobs, work=len(shards))
    if jobs <= 1 or len(shards) <= 1:
        if fold is None:
            return [worker(state, shard) for shard in shards]
        for shard in shards:
            fold(worker(state, shard))
        return None
    global _FORK_STATE
    if PERF.enabled:
        PERF.inc("runtime.pools")
        PERF.inc("runtime.shards", len(shards))
    _FORK_STATE = (worker, state)
    results = [] if fold is None else None
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards)),
                                 mp_context=context,
                                 initializer=_worker_init) as pool:
            # pool.map yields in submission order, so merging as
            # results arrive preserves shard order; with ``fold`` only
            # one shard's capture and records are in flight at a time.
            for result, capture in pool.map(_fork_entry, shards):
                merge_capture(capture)
                if fold is None:
                    results.append(result)
                else:
                    fold(result)
    finally:
        _FORK_STATE = None
    return results
