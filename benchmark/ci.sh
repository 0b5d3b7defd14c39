#!/usr/bin/env bash
# Build + tests + a quick pass over all eight workloads: the one line a
# workflow needs to keep the benchmark itself from rotting.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"

# The quick run first: it builds boltc/boltd/boltctl, which the live tests
# drive (tests/live.rs also runs `run.sh --quick --trace` and checks its
# output against BENCHMARK.json).
"$here/run.sh" --quick --trace
cargo test --release --offline --manifest-path "$here/Cargo.toml"
