"""Telemetry overhead self-measurement and budget gate (ISSUE 6).

The observability layer's founding promise (ISSUE 1) is *disabled
instrumentation costs one attribute check*; its second promise is
that with the tracer and perf counters running, a crypto hot loop
slows down by less than the 10 % budget the paper's
lightweight-monitoring claims assume.  This
bench measures both promises instead of trusting them: it times the
same Keccak-f[1600] hot loop three ways —

* ``pristine``  — the bare workload, no instrumentation in the loop,
* ``off``       — fully instrumented loop (span + counter + perf
  events per iteration) against *disabled* facades,
* ``on``        — the same instrumented loop with telemetry and perf
  enabled, the tracer keeping every finished span,

and gates the relative overheads (< {OFF}% off, < {ON}% on).  The
variants run against private ``Telemetry``/``PerfCounters`` instances,
never the global facades, so the bench cannot perturb the session
trace that ``scripts/check.sh`` exports — while exercising byte-for-
byte the same code paths the globals run.

Results land in ``results/obs_overhead.txt``/``.json`` and, through
the session summary, in ``bench_history.jsonl`` where the run-over-run
regression gate watches the recorded wall time.
"""

import time

import pytest

from conftest import write_table
from repro.crypto.keccak import keccak_f1600
from repro.obs import PerfCounters, Telemetry

#: Keccak-f[1600] permutations folded into one instrumented iteration.
#: Each permutation is a few hundred microseconds of pure-Python work,
#: so a ~5 us span costs ~1 % — real headroom under the 10 % gate
#: rather than a tautology, and enough work per timed run (~35 ms)
#: that scheduler noise stays small relative to the budgets.
PERMS_PER_ITER = 4
ITERS = 40
REPEATS = 7

#: Relative-overhead budgets, percent.  The "off" budget is the
#: one-attribute-check promise (measured ~0 %, gated loosely enough to
#: absorb timer noise on loaded CI); the "on" budget is the paper-level
#: lightweight-monitoring bar.
OVERHEAD_BUDGET_OFF_PCT = 5.0
OVERHEAD_BUDGET_ON_PCT = 10.0


def _pristine_loop() -> list:
    """The bare workload: no instrumentation in the loop body."""
    state = list(range(25))
    for _ in range(ITERS):
        for _ in range(PERMS_PER_ITER):
            state = keccak_f1600(state)
    return state


def _instrumented_loop(tel: Telemetry, perf: PerfCounters) -> list:
    """The same workload wrapped the way hot subsystems instrument
    themselves: one span, one metric counter and one perf event per
    iteration."""
    state = list(range(25))
    counter = tel.counter("obs_overhead.iters")
    for index in range(ITERS):
        with tel.span("obs_overhead.iter", index=index):
            for _ in range(PERMS_PER_ITER):
                state = keccak_f1600(state)
            counter.inc()
            if perf.enabled:
                perf.inc("obs_overhead.permutations", PERMS_PER_ITER)
    return state


def _best_of_interleaved(variants: dict) -> dict:
    """Minimum wall time per variant across interleaved repeats.

    Each repeat times every variant back to back, so machine-load or
    frequency drift during the bench degrades all variants together
    instead of biasing whichever one ran during the slow window — the
    relative overheads stay honest even on loaded CI.
    """
    for fn in variants.values():             # warm caches, JIT-free
        fn()
    best = {}
    for _ in range(REPEATS):
        for key, fn in variants.items():
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best[key] = min(best.get(key, elapsed), elapsed)
    return best


@pytest.fixture(scope="module")
def measurements():
    tel_off = Telemetry(enabled=False)
    perf_off = PerfCounters(enabled=False)

    tel_on = Telemetry(enabled=True)
    perf_on = PerfCounters(enabled=True)
    best = _best_of_interleaved({
        "pristine_s": _pristine_loop,
        "off_s": lambda: _instrumented_loop(tel_off, perf_off),
        "on_s": lambda: _instrumented_loop(tel_on, perf_on),
    })
    pristine_s = best["pristine_s"]
    off_s = best["off_s"]
    on_s = best["on_s"]
    return {
        "pristine_s": pristine_s,
        "off_s": off_s,
        "on_s": on_s,
        "off_pct": (off_s - pristine_s) / pristine_s * 100.0,
        "on_pct": (on_s - pristine_s) / pristine_s * 100.0,
        "telemetry_on": tel_on,
        "perf_on": perf_on,
    }


def test_disabled_overhead_within_budget(measurements):
    """Disabled facades must be indistinguishable from pristine code —
    the one-attribute-check contract, now measured."""
    assert measurements["off_pct"] < OVERHEAD_BUDGET_OFF_PCT, (
        f"instrumented loop against disabled facades is "
        f"{measurements['off_pct']:.2f}% slower than pristine "
        f"(budget {OVERHEAD_BUDGET_OFF_PCT}%)")


def test_enabled_overhead_within_budget(measurements):
    """Full telemetry + perf must stay under the 10 %
    lightweight-monitoring budget."""
    assert measurements["on_pct"] < OVERHEAD_BUDGET_ON_PCT, (
        f"fully-enabled telemetry costs {measurements['on_pct']:.2f}% "
        f"over pristine (budget {OVERHEAD_BUDGET_ON_PCT}%)")


def test_enabled_run_actually_observed(measurements):
    """Guard against a vacuous gate: the enabled variant must have
    recorded spans and counted events."""
    runs = REPEATS + 1                 # warmup + REPEATS timed runs
    tel = measurements["telemetry_on"]
    spans = tel.tracer.snapshot()
    # one finished span per iteration
    assert len(spans) == runs * ITERS
    assert {span["name"] for span in spans} == {"obs_overhead.iter"}
    assert tel.metrics.counter("obs_overhead.iters").value == \
        runs * ITERS
    perf = measurements["perf_on"]
    assert perf.snapshot()["obs_overhead.permutations"] == \
        runs * ITERS * PERMS_PER_ITER


def test_write_artifacts(measurements, report_dir):
    perms = ITERS * PERMS_PER_ITER
    rows = []
    for mode, key, pct in (
            ("pristine", "pristine_s", None),
            ("instrumented, facades off", "off_s", "off_pct"),
            ("instrumented, telemetry+perf on", "on_s",
             "on_pct")):
        wall = measurements[key]
        rows.append([
            mode,
            f"{wall * 1e3:.2f} ms",
            f"{perms / wall:,.0f}",
            f"{measurements[pct]:+.2f}%" if pct else "-",
            (f"< {OVERHEAD_BUDGET_OFF_PCT:.0f}%" if pct == "off_pct"
             else f"< {OVERHEAD_BUDGET_ON_PCT:.0f}%" if pct == "on_pct"
             else "-"),
        ])
    write_table(
        report_dir, "obs_overhead",
        f"Telemetry overhead budget: Keccak-f[1600] hot loop "
        f"({ITERS} iters x {PERMS_PER_ITER} permutations, best of "
        f"{REPEATS}), instrumented vs pristine",
        ["variant", "wall", "perms/s", "overhead", "budget"], rows)
