#!/usr/bin/env bash
# Builds the repo's release binaries and the benchmark, then runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--aa] [--quick]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both workspaces build into one target directory ($CARGO_TARGET_DIR, or
# benchmark/target) so the benchmark finds boltc, boltd and boltctl beside
# itself. Everything a run writes lands under benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"

# The root manifest's default build is boltc alone; name all three.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p bolt-repro --bin boltc -p bolt-server --bin boltd --bin boltctl >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

mkdir -p "$here/out"
cd "$here/out"
# exec: signals sent to this script reach the benchmark, which stops and
# reaps every boltd it started and removes its run directory.
exec "$CARGO_TARGET_DIR/release/bolt-benchmark" "$@"
