"""Delta-debugging shrink for violating adversary cases.

When the hardening gate trips — a generated adversary drove a hardened
scenario into silent corruption or a crash — the raw op sequence is
rarely the story: most of its ops are noise the mutation loop layered
on.  :func:`ddmin` is the classic Zeller/Hildebrandt minimizing delta
debugger over the op sequence: repeatedly try removing contiguous
chunks (at doubling granularity) and keep any removal that still
*replays* the violation.  The result is 1-minimal — no single
remaining op can be dropped — which is what a repro artifact should
carry.

Everything is deterministic: chunks are tried in index order, the
replay predicate re-executes the (deterministic) family, and the
evaluation budget bounds worst-case work without changing the result
on the sequences the campaign actually produces (``MAX_OPS`` long).
"""

from __future__ import annotations


def ddmin(items, replays, max_evals: int) -> list:
    """The smallest subsequence of ``items`` still satisfying
    ``replays`` (assumed True for ``items`` itself).

    ``replays`` takes a list and returns bool; it is never called on
    the full input.  Returns a new list (input untouched), 1-minimal
    unless ``max_evals`` ran out first.
    """
    items = list(items)
    evals = 0
    chunks = 2
    while len(items) >= 2:
        length = len(items)
        reduced = False
        for index in range(chunks):
            lo = index * length // chunks
            hi = (index + 1) * length // chunks
            if lo == hi:
                continue
            candidate = items[:lo] + items[hi:]
            evals += 1
            if evals > max_evals:
                return items
            if replays(candidate):
                items = candidate
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if chunks >= length:
                break                         # 1-minimal
            chunks = min(length, chunks * 2)
    return items


def shrink_case(family, case):
    """Minimize ``case`` while its classified outcome survives, in at
    most 256 replays.

    Returns ``(minimized_case, evals)`` where the minimized case's op
    sequence is a 1-minimal subsequence of the original's producing
    the same :class:`~repro.faults.report.Outcome` class and reason.
    Imported lazily from :mod:`.families` to keep this module free of
    subsystem imports.
    """
    from .families import run_case

    target = run_case(family, case)
    evals = [0]

    def replays(ops) -> bool:
        evals[0] += 1
        record = run_case(family, case.with_ops(tuple(ops)))
        return (record.outcome == target.outcome
                and record.reason == target.reason)

    minimal = ddmin(list(case.ops), replays, max_evals=256)

    return case.with_ops(tuple(minimal)), evals[0]
