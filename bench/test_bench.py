"""Self-test of the benchmark harness, on tiny sizes (``--quick``).

Run explicitly; the repository's test suite does not collect it::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _load(name: str):
    """Import a benchmark module by path (``trace`` would otherwise
    resolve to the standard library's module of that name)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def sets():
    """Three quick sets: seed 2026 traced (an untraced and a traced
    child per workload), seed 2026 again, and seed 7."""
    out = {}
    for key, args in (("first", ["--seed", "2026", "--trace"]),
                      ("again", ["--seed", "2026"]),
                      ("other", ["--seed", "7"])):
        child = _bench("--quick", *args)
        assert child.returncode == 0, child.stdout + child.stderr
        out[key] = (child.stdout,
                    json.loads((HERE / "out" / "results.json").read_text()))
    return out


def test_every_metric_printed_with_unit(sets):
    stdout, results = sets["first"]
    for name in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            line = rf"^{name} {metric['name']} \S+ {metric['unit']}\b"
            assert re.search(line, stdout, re.M), (name, metric["name"])
        layers = results[f"{name}.trace"]["layers"]
        assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)
        samples = results[name]["setup_samples"]
        assert len(samples) == 3
        assert results[name]["setup_s"] == sorted(samples)[1]


def test_contract_line_has_each_per_layer_metric():
    child = _bench("--workload", "dse-local", "--quick", "--trace", "1")
    assert child.returncode == 0, child.stderr
    line = json.loads(child.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: entry["unit"] for name, entry in
            line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_no_failed_ops(sets):
    for _, results in sets.values():
        for name, result in results.items():
            assert result["failed"] == 0, name


def test_same_seed_same_counts_and_digest(sets):
    first, again = sets["first"][1], sets["again"][1]
    for name in WORKLOADS:
        assert first[name]["attempted"] == again[name]["attempted"]
        assert first[name]["digest"] == again[name]["digest"]
        # Tracing must not change what the program computes.
        assert first[f"{name}.trace"]["digest"] == first[name]["digest"]


def test_other_seed_other_inputs_same_counts(sets):
    first, other = sets["first"][1], sets["other"][1]
    for name in WORKLOADS:
        assert first[name]["attempted"] == other[name]["attempted"]
        same_inputs = first[name]["inputs"] == other[name]["inputs"]
        assert same_inputs == (name == "dse-exhaustive"), name


def test_flipped_verdict_fails():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        run = _load("run")

        def flip(workload):
            expected = workload.waves[0][1]
            expected[0] = not expected[0]

        result = run.measure("attest-fresh", 2026, 1, quick=True,
                             tamper=flip)
    finally:
        del sys.path[:2]
    assert result["failed"] > 0


STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
NOISY = [100, 60, 140, 70, 130, 100, 65, 135, 100, 90]


@pytest.mark.parametrize("better, parent, change, expected", [
    ("higher", STEADY, [v - 20 for v in STEADY], "regression"),
    ("lower", STEADY, [v + 20 for v in STEADY], "regression"),
    ("higher", STEADY, [v + 10 for v in STEADY], "gain"),
    ("lower", STEADY, [v - 10 for v in STEADY], "gain"),
    # Wins 6 of 10 pairs: not the nine tenths a gain needs.
    ("higher", STEADY, [101, 100, 100, 99, 101, 99, 101, 100, 100, 101],
     "same"),
    ("higher", NOISY, STEADY, "unresolved"),
    ("higher", STEADY, NOISY, "unresolved"),
    # A wide spread still resolves when every change run is better
    # than every parent run.
    ("higher", NOISY, [v + 100 for v in STEADY], "gain"),
])
def test_verdict(better, parent, change, expected):
    compare = _load("compare")
    metric = {"name": "m", "better": better, "bound": 0.15}
    assert compare.verdict(metric, parent, change)[0] == expected


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_reference_seconds_at_half_speed():
    speed, run = _load("speed"), _load("run")
    sampler = speed.SpeedSampler("python")
    sampler.reference = 0.001
    # A sample every 50 ms for 3 s, each twice the reference time.
    sampler.samples = [(k * 0.05, 0.002) for k in range(60)]
    assert sampler.scale(1.0, 2.0) == pytest.approx(0.5)
    # One second of wall holds 20 samples: 40 ms of sampling is taken
    # out, and the rest counts half.
    assert run.reference_seconds(sampler, 1.0, 2.0) == \
        pytest.approx(0.48)
    with pytest.raises(RuntimeError):
        sampler.scale(10.0, 11.0)


@pytest.mark.parametrize("kernel", ["python", "hash", "numpy"])
def test_sampler_samples_and_stops(kernel):
    import signal
    speed = _load("speed")
    with speed.SpeedSampler(kernel) as sampler:
        _busy(0.3)
    assert len(sampler.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_on_nested_calls():
    trace = _load("trace")
    tracer = trace.Tracer()

    def leaf():
        _busy(0.004)

    def recurse(depth):
        _busy(0.002)
        if depth:
            recurse_traced(depth - 1)
        leaf_traced()

    def items():
        for _ in range(3):
            _busy(0.001)
            yield leaf_traced()

    leaf_traced = tracer.wrap(leaf, "leaf")
    recurse_traced = tracer.wrap(recurse, "recurse")
    items_traced = tracer.wrap_generator(items, "items")
    tracer.begin_op(0)
    recurse_traced(2)
    assert len(list(items_traced())) == 3
    wall = tracer.end_op()

    totals = tracer.layer_totals()
    assert totals["recurse"][0] == 3
    assert totals["leaf"][0] == 6
    assert totals["items"][0] == 4          # three items, one stop
    spans = tracer.spans
    outer = spans[(0, "op", "recurse")]
    nested = spans[(0, "recurse", "recurse")]
    leaves = spans[(0, "recurse", "leaf")]
    assert outer[2] + nested[2] == pytest.approx(
        outer[1] - leaves[1], abs=1e-9)
    assert totals["recurse"][1] == pytest.approx(0.006, rel=0.5)
    assert totals["items"][1] == pytest.approx(0.003, rel=0.5)
    assert totals["leaf"][1] == pytest.approx(0.024, rel=0.5)
    self_sum = sum(self_s for _, self_s in totals.values())
    root_self = spans[(0, None, "op")][2]
    assert self_sum + root_self == pytest.approx(wall, abs=1e-9)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = _bench("--workload", "attest-fresh", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert "correct" not in child.stdout
