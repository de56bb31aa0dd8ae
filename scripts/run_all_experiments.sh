#!/usr/bin/env bash
# Regenerate every reconstructed NetSolve experiment (R2-R7) into results/.
# (R1, R8 and the wire/trace/cache costs are ledger rows: bash benchmark/run.sh.)
# Usage: scripts/run_all_experiments.sh [results-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"

cargo build --release -p netsolve-bench --bins

for exp in r2_load_balance r3_prediction r4_workload_policy \
           r5_fault_tolerance r6_scalability r7_network_crossover; do
    echo "=== $exp ==="
    ./target/release/"$exp" | tee "$out/$exp.txt"
done

echo
echo "All experiment outputs written to $out/ — compare with EXPERIMENTS.md."
