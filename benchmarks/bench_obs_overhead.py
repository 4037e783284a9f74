"""Telemetry overhead self-measurement and budget gate (ISSUE 6).

The observability layer's founding promise (ISSUE 1) is *disabled
instrumentation costs one attribute check*; its second promise is
that with the tracer and perf counters running, a crypto hot loop
slows down by less than the 10 % budget the paper's
lightweight-monitoring claims assume.  This
bench measures both promises instead of trusting them: it times a
production kernel, Ed25519's ``_verify`` (whose body opens no span),
three ways —

* ``pristine``  — the bare kernel, no instrumentation in the loop,
* ``off``       — each call wrapped the way :func:`ed25519.verify`
  wraps it (one span + one perf event) against *disabled* facades,
* ``on``        — the same wrapped loop with telemetry and perf
  enabled, the tracer keeping every finished span and pricing each
  one's PERF delta (two counter snapshots), as a
  ``REPRO_TELEMETRY=1 REPRO_PERF=1`` run does,

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
from repro.crypto import ed25519
from repro.obs import PerfCounters, Telemetry, Tracer

#: Ed25519 verifications per timed run.  One ``_verify`` is about
#: 2.5 ms of pure-Python curve arithmetic, so a span with its two
#: PERF snapshots (~13 us) costs about 0.5 % — real
#: headroom under the 10 % gate rather than a tautology, and enough
#: work per timed run (~40 ms) that scheduler noise stays small
#: relative to the budgets.
VERIFIES = 16
REPEATS = 7

#: Relative-overhead budgets, percent.  The "off" budget is the
#: one-attribute-check promise (measured ~0 %, gated loosely enough to
#: absorb timer noise on loaded CI); the "on" budget is the paper-level
#: lightweight-monitoring bar.
OVERHEAD_BUDGET_OFF_PCT = 5.0
OVERHEAD_BUDGET_ON_PCT = 10.0


def _pristine_loop(public, message, signature) -> bool:
    """The bare kernel: no instrumentation in the loop body."""
    for _ in range(VERIFIES):
        verdict = ed25519._verify(public, message, signature)
    return verdict


def _instrumented_loop(tel: Telemetry, perf: PerfCounters,
                       public, message, signature) -> bool:
    """The same kernel wrapped the way :func:`ed25519.verify` wraps it
    (its verdict memo aside): one span and one perf event per call.
    The event is counted inside the span, so each span's PERF delta is
    checkable."""
    for _ in range(VERIFIES):
        with tel.span("obs_overhead.verify",
                      message_bytes=len(message)):
            if perf.enabled:
                perf.inc("obs_overhead.verifies")
            verdict = ed25519._verify(public, message, signature)
    return verdict


def _best_of_interleaved(variants: dict) -> dict:
    """Minimum wall time per variant across interleaved repeats.

    Each repeat times every variant back to back, so machine-load or
    frequency drift during the bench degrades all variants together
    instead of biasing whichever one ran during the slow window — the
    relative overheads stay honest even on loaded CI.
    """
    for fn in variants.values():             # warm caches, JIT-free
        assert fn()
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
    key = ed25519.SigningKey(bytes(32))
    message = b"attestation report"
    signed = (key.public, message, key.sign(message))
    tel_off = Telemetry(enabled=False)
    perf_off = PerfCounters(enabled=False)

    perf_on = PerfCounters(enabled=True)
    tel_on = Telemetry(enabled=True)
    tel_on.tracer = Tracer(counters=perf_on)
    best = _best_of_interleaved({
        "pristine_s": lambda: _pristine_loop(*signed),
        "off_s": lambda: _instrumented_loop(tel_off, perf_off, *signed),
        "on_s": lambda: _instrumented_loop(tel_on, perf_on, *signed),
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
    recorded a timed span and counted an event per call, and every
    span must carry the PERF delta of its call."""
    calls = (REPEATS + 1) * VERIFIES   # warmup + REPEATS timed runs
    tel = measurements["telemetry_on"]
    spans = tel.tracer.snapshot()
    assert len(spans) == calls
    assert {span["name"] for span in spans} == {"obs_overhead.verify"}
    assert all(span["events"] == {"obs_overhead.verifies": 1}
               for span in spans)
    assert all(span["duration_s"] > 0 for span in spans)
    perf = measurements["perf_on"]
    assert perf.snapshot()["obs_overhead.verifies"] == calls


def test_write_artifacts(measurements, report_dir):
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
            f"{VERIFIES / wall:,.0f}",
            f"{measurements[pct]:+.2f}%" if pct else "-",
            (f"< {OVERHEAD_BUDGET_OFF_PCT:.0f}%" if pct == "off_pct"
             else f"< {OVERHEAD_BUDGET_ON_PCT:.0f}%" if pct == "on_pct"
             else "-"),
        ])
    write_table(
        report_dir, "obs_overhead",
        f"Telemetry overhead budget: Ed25519 _verify hot loop "
        f"({VERIFIES} verifications, best of {REPEATS}), instrumented "
        f"vs pristine",
        ["variant", "wall", "verifies/s", "overhead", "budget"], rows)
