#!/usr/bin/env bash
# End-to-end BLT1 artifact smoke test: train a forest, compile it to a
# memory-mappable .blt artifact, inspect and verify the file, serve it
# through boltd's model registry, and classify a sample over the socket.
#
# Usage: scripts/run_artifact.sh [samples]
#   samples — training samples for the forest (default 800).
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES="${1:-800}"
WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/bolt-artifact.XXXXXX")"
FOREST="$WORKDIR/forest.json"
MODEL="$WORKDIR/model.blt"
SOCKET="$WORKDIR/bolt.sock"
BOLTD_PID=""

cleanup() {
    [ -n "$BOLTD_PID" ] && kill "$BOLTD_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

cargo build --release --bins --workspace
BOLTC=./target/release/boltc
BOLTD=./target/release/boltd
BOLTQ=./target/release/boltq

echo "== train (lstw, $SAMPLES samples) =="
"$BOLTC" train --workload lstw --samples "$SAMPLES" --trees 8 --height 4 \
    --seed 7 --out "$FOREST"

echo "== compile to BLT1 =="
"$BOLTC" compile --forest "$FOREST" --threshold 2 --out "$MODEL"

echo "== inspect =="
INSPECT="$("$BOLTC" inspect --blt "$MODEL")"
echo "$INSPECT"
# Sections 14/15 (the blocked dictionary mirror) are retired: a freshly
# compiled artifact must not carry them.
if grep -qE 'DICT_(MASK|KEY)_BLK' <<<"$INSPECT"; then
    echo "fresh artifact lists a retired DICT_*_BLK section" >&2
    exit 1
fi
# A reader that stops early closes the pipe under boltc: a quiet exit 0,
# never a panic (pipefail fails this step if boltc does not exit 0).
"$BOLTC" inspect --blt "$MODEL" 2>"$WORKDIR/inspect.err" | head -1
if grep -q panicked "$WORKDIR/inspect.err"; then
    cat "$WORKDIR/inspect.err" >&2
    exit 1
fi

echo "== verify (checksums + bit-identical vs forest) =="
"$BOLTC" verify --blt "$MODEL" --forest "$FOREST" --workload lstw \
    --samples 300 --seed 7

echo "== serve + classify =="
"$BOLTD" --model prod=artifact:"$MODEL" --default prod --socket "$SOCKET" &
BOLTD_PID=$!
for _ in $(seq 1 50); do
    [ -S "$SOCKET" ] && break
    kill -0 "$BOLTD_PID" 2>/dev/null || { echo "boltd died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$SOCKET" ] || { echo "boltd never bound $SOCKET" >&2; exit 1; }

"$BOLTQ" --socket "$SOCKET" --list
# lstw samples carry 11 features.
"$BOLTQ" --socket "$SOCKET" --zeros 11
"$BOLTQ" --socket "$SOCKET" --model prod --zeros 11

echo "Artifact round trip OK: compile -> inspect -> verify -> serve -> classify."
