#!/usr/bin/env python3
"""End-to-end benchmark: attestation service, HADES DSE, fault
campaigns and CIM attacks, with an outside-in per-layer trace.

Run every workload, each in its own fresh child process, one at a
time::

    python3 bench/run.py --seed 2026            # end-to-end metrics
    python3 bench/run.py --seed 2026 --trace    # plus the traced rerun

or one workload in this process (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload attest-fresh --seed 2026 \\
        --seconds 10 --trace 0

A run prints ``workload metric value unit`` lines, writes
``bench/out/<workload>[.trace].json`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones, and also
writes ``<workload>.trace.jsonl`` and ``<workload>.layers.json``.
Every run is single-threaded and runs one closed loop with one caller.
An untraced run samples the machine's speed while it runs
(:mod:`speed`) and reports its timings at the reference speed; the
plain wall-clock readings are printed beside them.
"""

from __future__ import annotations

from time import perf_counter

#: When this process started; set-up time runs from here.
STARTED = perf_counter()

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Cold set-ups per run, each in a fresh process (this run's own and
#: the rest in ``--setup-only`` children); ``setup_s`` is their median.
#: Fresh processes keep every sample cold: a second set-up in one
#: process would reuse its process-wide memos (boot, verify, contexts).
SETUP_SAMPLES = 3
#: Process-wide switches that would change what is measured.
CLEARED_ENV = ("REPRO_JOBS", "REPRO_TELEMETRY", "REPRO_PERF",
               "REPRO_AUDIT")
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values, q: int):
    """The ``q``-th percentile (``statistics.quantiles`` exclusive
    method), or ``None`` without ten samples beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


# -- one workload, in this process ---------------------------------------

def reference_seconds(sampler, begin: float, end: float) -> float:
    """Seconds from ``begin`` to ``end`` at the reference speed: wall
    time less the sampler's own, scaled by the speed it measured."""
    sampling = sum(seconds for start, seconds in sampler.samples
                   if begin <= start < end)
    return (end - begin - sampling) * sampler.scale(begin, end)


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            quick: bool = False, tamper=None, trace_path=None,
            sampler=None) -> dict:
    """Set up ``name``, then time its ops.  ``setup_s`` is the time
    from process start to the first timed op.

    An untraced run needs a running :class:`speed.SpeedSampler`; its
    timings are read at the sampler's reference speed.  ``wall_*``
    keep the plain wall-clock readings.  ``tamper(workload)`` runs
    after set-up; the self-test uses it to corrupt an expected verdict.
    A traced run writes its spans to ``trace_path`` when one is given.
    """
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, quick)
    workload.setup()
    setup_end = perf_counter()
    if tamper is not None:
        tamper(workload)
    ops = workload.op_count(seconds)
    gc.collect()

    tracer = None
    if trace:
        from repro.obs.perf import PERF
        from trace import Patcher, Tracer, install
        tracer, patcher = Tracer(), Patcher()
        PERF.enable()
        perf_before = PERF.snapshot()
        install(tracer, patcher, workload.template)
    spans, failed, items = [], 0, 0
    digest = hashlib.sha256()
    try:
        for index in range(ops):
            if tracer is not None:
                tracer.begin_op(index)
                output = workload.op(index)
                spans.append((0.0, tracer.end_op()))
            else:
                start = perf_counter()
                output = workload.op(index)
                spans.append((start, perf_counter()))
            failed += not workload.check(index, output)
            items += workload.items(index, output)
            digest.update(workload.encode(output))
    finally:
        if tracer is not None:
            patcher.restore()
            perf = PERF.snapshot() - perf_before
            PERF.disable()

    walls = [end - start for start, end in spans]
    result = {
        "workload": name, "seed": seed, "item": workload.item,
        "attempted": ops, "failed": failed,
        "digest": digest.hexdigest(),
        "inputs": hashlib.sha256(workload.inputs()).hexdigest(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_setup_s": setup_end - STARTED,
        "wall_latency_ms": statistics.median(walls) * 1e3,
        "wall_items_per_s": items / sum(walls),
    }
    if sampler is not None:
        times = [reference_seconds(sampler, start, end)
                 for start, end in spans]
        result.update({
            "setup_s": reference_seconds(sampler, STARTED, setup_end),
            "speed": statistics.median(
                sampler.reference / seconds
                for _, seconds in sampler.samples),
            "latency_ms": statistics.median(times) * 1e3,
            "latency_p90_ms": _ms(percentile(times, 90)),
            "latency_p99_ms": _ms(percentile(times, 99)),
            "items_per_s": items / sum(times),
        })
    if tracer is not None:
        result["layers"], result["layer_table"] = layer_metrics(
            tracer, perf, workload.ratios())
        if trace_path is not None:
            tracer.write(trace_path)
    return result


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def layer_metrics(tracer, perf, ratios: dict) -> tuple:
    """``(metrics, table)``: every per-layer metric in ``BENCHMARK.json``
    units, and the layer table (calls, self seconds, share of op wall)
    they come from.

    Self time is reported as a share of op wall: a layer a workload
    never reaches reads 0 on every run, which as a time would look
    unmeasured.  ``op.wall_s`` turns shares back into seconds.
    """
    from trace import PERF_EVENTS
    op_wall = tracer.op_wall()
    totals = tracer.layer_totals()
    attributed = sum(self_s for _, self_s in totals.values())
    totals["unattributed"] = (None, op_wall - attributed)
    table = [{"layer": layer, "calls": calls, "self_s": self_s,
              "share": self_s / op_wall}
             for layer, (calls, self_s) in totals.items()]
    metrics = {"op.calls": sum(1 for key in tracer.spans if key[1] is None),
               "op.wall_s": op_wall}
    for row in table:
        if row["calls"] is not None:
            metrics[f"{row['layer']}.calls"] = row["calls"]
        metrics[f"{row['layer']}.self_share"] = row["share"]
    counts = tracer.counts
    batches = totals["crypto.ed25519.verify_batch"][0]
    lookups = totals["runtime.memo.lookup"][0]
    metrics["crypto.ed25519.verify_batch.lanes"] = \
        counts["crypto.ed25519.verify_batch.lanes"]
    metrics["crypto.ed25519.verify_batch.fallback_frac"] = (
        counts["crypto.ed25519.verify_batch.fallbacks"] / batches
        if batches else 0.0)
    metrics["crypto.mldsa.verify_many.lanes"] = \
        counts["crypto.mldsa.verify_many.lanes"]
    metrics["runtime.memo.hit_ratio"] = (
        counts["runtime.memo.lookup.hits"] / lookups if lookups else 0.0)
    metrics["cim.macro.query_fresh_many.traces"] = \
        counts["cim.macro.query_fresh_many.traces"]
    for event in PERF_EVENTS:
        metrics[event] = perf[event]
    metrics["tee.service.cache_hit_ratio"] = 0.0
    metrics["faults.campaign.fired_ratio"] = 0.0
    metrics.update(ratios)
    return metrics, table


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print the human lines; returns the contract's result object."""
    name = result["workload"]
    if trace:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = result
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if trace:
        print_layer_table(result)
    else:
        ops = result["attempted"]
        for metric in wanted:
            print(f"{name} {metric['name']} "
                  f"{values[metric['name']]:.6g} {metric['unit']}")
        for q in (90, 99):
            value = result[f"latency_p{q}_ms"]
            if value is not None:
                print(f"{name} latency_p{q}_ms {value:.4f} ms (n={ops})")
        print(f"{name} {result['item']}_per_s "
              f"{result['items_per_s']:.6g} 1/s (n={ops})")
        print(f"{name} wall_latency_ms {result['wall_latency_ms']:.4f} ms "
              f"at speed {result['speed']:.3f} (n={ops})")
        print(f"{name} failed_frac {result['failed'] / ops:.6g} ratio")
    print(f"{name} digest {result['digest']} inputs {result['inputs']}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def layers_table(result: dict) -> dict:
    """``<workload>.layers.json``: calls, self seconds and share of op
    wall per layer, then the counts and ratios."""
    layers = result["layers"]
    counts = {key: value for key, value in layers.items()
              if not key.endswith((".calls", ".self_share"))}
    return {"workload": result["workload"], "ops": result["attempted"],
            "op_wall_s": layers["op.wall_s"],
            "layers": result["layer_table"], "counts": counts}


def print_layer_table(result: dict) -> None:
    table = layers_table(result)
    print(f"{table['workload']} layer table ({table['ops']} ops, "
          f"{table['op_wall_s']:.3f} s op wall)")
    print(f"  {'layer':<44} {'calls':>10} {'self_s':>10} {'share':>7}")
    for row in table["layers"]:
        if row["calls"] != 0:
            print(f"  {row['layer']:<44} {row['calls'] or '':>10} "
                  f"{row['self_s']:>10.4f} {row['share']:>7.1%}")


def cold_setup(args) -> float:
    """Set-up seconds of one ``--setup-only`` child."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    child = subprocess.run(command, cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True)
    return float(child.stdout.split()[-1])


def run_one(args) -> int:
    from speed import SpeedSampler
    from workloads import WORKLOADS
    name = args.workload
    kernel = WORKLOADS[name].kernel
    if args.setup_only:
        with SpeedSampler(kernel) as sampler:
            WORKLOADS[name](args.seed, args.quick).setup()
            end = perf_counter()
        print(reference_seconds(sampler, STARTED, end))
        return 0
    spec = benchmark_spec()
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    if trace:
        result = measure(name, args.seed, args.seconds, trace, args.quick,
                         trace_path=OUT / f"{name}.trace.jsonl")
    else:
        with SpeedSampler(kernel) as sampler:
            result = measure(name, args.seed, args.seconds,
                             quick=args.quick, sampler=sampler)
        result["setup_samples"] = [result["setup_s"]] + [
            cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        result["setup_s"] = statistics.median(result["setup_samples"])
    suffix = ".trace" if trace else ""
    (OUT / f"{name}{suffix}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    if trace:
        (OUT / f"{name}.layers.json").write_text(
            json.dumps(layers_table(result), indent=2) + "\n")
    line = report(result, spec, trace)
    print(json.dumps(line))
    return 0


# -- every workload, one child process each ------------------------------

def run_all(args) -> int:
    from workloads import WORKLOADS
    results = {}
    passes = [0, 1] if args.trace else [0]
    ok = True
    for name in WORKLOADS:
        for trace in passes:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            child = subprocess.run(command, cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                print(f"{name}: child exited {child.returncode}",
                      file=sys.stderr)
                return child.returncode or 1
            summary = json.loads(lines[-1])
            ok = ok and summary["correct"]
            suffix = ".trace" if trace else ""
            results[name + suffix] = json.loads(
                (OUT / f"{name}{suffix}.json").read_text())
        if args.trace:
            plain = results[name]["wall_items_per_s"]
            traced = results[name + ".trace"]["wall_items_per_s"]
            print(f"{name} tracing_overhead {plain / traced - 1:.1%} "
                  f"({plain:.6g} vs {traced:.6g} {results[name]['item']}"
                  f"/s)")
    out = OUT / "results.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes each workload's fixed op count")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds "
                             "that took and exit (one cold set-up sample)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.workload is None:
        if args.setup_only:
            parser.error("--setup-only needs --workload")
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
