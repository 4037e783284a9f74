#!/usr/bin/env bash
# Repo health check: tier-1 tests, then the fast benches with telemetry
# and architectural perf counters enabled, then a trace-report sanity
# pass over the captured trace (span table with self events, plus the
# collapsed stacks derived from the same records), then the bench run
# is recorded into benchmarks/results/bench_history.jsonl and the
# run-over-run trend is printed (the hard regression *gate* is a
# separate CI step so perf failures are distinguishable from test
# failures).
#
#     bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== fast benches (telemetry + perf counters enabled) =="
REPRO_TELEMETRY=1 REPRO_PERF=1 python -m pytest -q \
    benchmarks/bench_fig1_cim_clustering.py \
    benchmarks/bench_fig3_rtos_pmp.py \
    benchmarks/bench_framework.py \
    benchmarks/bench_fault_campaign.py \
    benchmarks/bench_table1_dse_runtime.py \
    benchmarks/bench_local_search.py \
    benchmarks/bench_crypto_primitives.py \
    benchmarks/bench_crypto_batch.py \
    benchmarks/bench_cim_passive.py \
    benchmarks/bench_cim_higher_order.py \
    benchmarks/bench_attestation_service.py \
    benchmarks/bench_obs_overhead.py

for workload in attest-fresh attest-steady fault-campaign dse-exhaustive \
        dse-local cim-attack; do
    echo "== $workload verdict smoke (benchmark, quick) =="
    python3 bench/run.py --workload "$workload" --seed 7 --quick --trace 0 \
        | tail -n 1 | python3 -c '
import json, sys
workload = sys.argv[1]
result = json.loads(sys.stdin.read())
if result.get("correct") is not True:
    sys.exit(f"{workload} verdicts drifted: {result}")
print(workload, "correct:", result["attempted"], "ops")
' "$workload"
done

for workload in dse-local dse-exhaustive; do
    echo "== $workload traced smoke (benchmark, quick) =="
    # The traced run wraps the HADES layers (the top-level cost, the
    # memo, the exhaustive fold that now computes the lanes the cost
    # only records): it must stay correct and still see every
    # top-level cost call.
    python3 bench/run.py --workload "$workload" --seed 7 --quick \
        --trace 1 | tail -n 1 | python3 -c '
import json, sys
workload = sys.argv[1]
result = json.loads(sys.stdin.read())
if result.get("correct") is not True:
    sys.exit(f"traced {workload} verdicts drifted: {result}")
calls = result["metrics"]["hades.template.cost.calls"]["value"]
if not calls > 0:
    sys.exit(f"traced {workload} saw no hades.template.cost calls")
print(f"traced {workload} correct:", result["attempted"], "ops,",
      calls, "top-level cost calls")
' "$workload"
done

echo "== fault campaign summary =="
python scripts/fault_report.py benchmarks/results/fault_campaign.json \
    --by scenario --worst 5

echo "== adversary campaign smoke (small budget, audited) =="
python scripts/adversary_report.py --run --seed 2026 \
    --generations 3 --population 32 \
    --out benchmarks/results/adversary_smoke.json \
    --corpus-out benchmarks/results/adversary_smoke_corpus.json \
    --audit-out benchmarks/results/adversary_smoke_audit.jsonl
python scripts/adversary_report.py --replay \
    benchmarks/results/adversary_smoke_corpus.json --replay-limit 8

echo "== audit ledger verification =="
python scripts/audit_report.py \
    benchmarks/results/adversary_smoke_audit.jsonl --verify

echo "== trace report =="
python scripts/trace_report.py benchmarks/results/trace.jsonl \
    --collapsed --top 15

echo "== bench summary =="
python - <<'EOF'
import json
summary = json.load(open("BENCH_SUMMARY.json"))
for bench in summary["benches"]:
    print(f"{bench['name']:40s} {bench['wall_time_s']:10.3f}s "
          f"{bench['status']}")
EOF

echo "== bench history (record + trend) =="
python scripts/bench_history.py

echo "check.sh: OK"
