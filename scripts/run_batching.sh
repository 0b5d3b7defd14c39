#!/usr/bin/env bash
# One-shot batching-throughput run: builds release and runs the
# extra_batching sweep (per-sample vs batched across batch sizes), writing
# the report into results/.
#
# Usage: scripts/run_batching.sh [samples]
#   samples — test samples for the sweep tables (default 2000).
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES="${1:-2000}"
export BOLT_BENCH_SAMPLES="$SAMPLES"

mkdir -p results

echo "== extra_batching (samples=$SAMPLES) =="
cargo run -q --release -p bolt-bench --bin extra_batching | tee results/extra_batching.txt

echo "Batching report written to results/extra_batching.txt."
