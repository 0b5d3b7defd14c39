#!/usr/bin/env bash
# One-shot batching-throughput run: builds release, runs the extra_batching
# sweep (per-sample vs batched vs sharded across batch sizes) and the
# criterion batching micro-bench, writing both reports into results/.
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

echo "== criterion batching bench =="
cargo bench -q -p bolt-bench --bench batching | tee results/bench_batching.txt

echo "Batching reports written to results/extra_batching.txt and results/bench_batching.txt."
