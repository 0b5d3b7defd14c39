#!/usr/bin/env bash
# Open-loop load-generator smoke test: train and compile a model, serve it
# through a real boltd process on both transports (one event loop), drive
# it with bolt-bench over UDS and TCP, and validate the emitted
# BENCH_*.json snapshots against the schema. Bounded request counts keep
# this inside CI budgets; the numbers it produces are smoke-level, not
# publishable.
#
# The model-store leg serves a directory fleet through a resident-bytes
# budget (evict + re-map under load), kills boltd with SIGKILL mid-churn,
# and proves the restarted process recovers the same catalog from the
# write-ahead log and serves the whole fleet clean.
#
# The control-plane leg drives the admin socket with boltctl while load
# (including fuzz-shaped hostile frames) sustains: a freshly dropped
# artifact is rescanned and activated live with zero restarts, refused
# ops exit nonzero, the background compactor prunes a superseded version
# without a restart, --warm-top pre-maps artifacts before the first
# accept, and a SIGKILL during admin churn replays the WAL cleanly.
#
# Usage: scripts/run_loadgen.sh [requests]
#   requests — frames per workload (default 1500).
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${1:-1500}"
WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/bolt-loadgen.XXXXXX")"
FOREST="$WORKDIR/forest.json"
MODEL="$WORKDIR/model.blt"
SOCKET="$WORKDIR/bolt.sock"
TCP_ADDR="127.0.0.1:19407"
BOLTD_PID=""

cleanup() {
    [ -n "$BOLTD_PID" ] && kill "$BOLTD_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

cargo build --release --bins --workspace
BOLTC=./target/release/boltc
BOLTD=./target/release/boltd
BENCH=./target/release/bolt-bench

echo "== train + compile (lstw) =="
"$BOLTC" train --workload lstw --samples 800 --trees 8 --height 4 \
    --seed 7 --out "$FOREST"
"$BOLTC" compile --forest "$FOREST" --threshold 2 --out "$MODEL"

# Starts boltd on both transports and waits for the socket.
start_boltd() {
    "$BOLTD" --model prod=artifact:"$MODEL" --default prod \
        --socket "$SOCKET" --tcp "$TCP_ADDR" &
    BOLTD_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$SOCKET" ] && break
        kill -0 "$BOLTD_PID" 2>/dev/null || { echo "boltd died" >&2; exit 1; }
        sleep 0.1
    done
    [ -S "$SOCKET" ] || { echo "boltd never bound $SOCKET" >&2; exit 1; }
}

stop_boltd() {
    kill "$BOLTD_PID" 2>/dev/null || true
    wait "$BOLTD_PID" 2>/dev/null || true
    BOLTD_PID=""
    rm -f "$SOCKET"
}

# Runs the workload mix against the live boltd into the given results dir:
# UDS single + batch, a fixed-duration UDS run, and TCP single with error
# traffic and reconnect churn.
drive() {
    out="$1"
    "$BENCH" --connect uds:"$SOCKET" --workload loadgen_uds_single --data lstw \
        --requests "$REQUESTS" --rate 4000 --threads 4 --out "$out"
    "$BENCH" --connect uds:"$SOCKET" --workload loadgen_uds_batch --data lstw \
        --requests "$REQUESTS" --rate 2000 --threads 4 --batch 16 \
        --out "$out"
    "$BENCH" --connect uds:"$SOCKET" --workload loadgen_uds_timed --data lstw \
        --duration-secs 2 --rate 4000 --threads 4 --out "$out"
    "$BENCH" --connect tcp:"$TCP_ADDR" --workload loadgen_tcp_single --data lstw \
        --requests "$REQUESTS" --rate 4000 --threads 4 --model prod \
        --error-every 16 --reconnect-every 8 --out "$out"
}

echo "== serve on UDS + TCP: one event loop =="
start_boltd
drive "$WORKDIR/results"
stop_boltd

echo "== validate snapshots against the schema =="
"$BENCH" --check "$WORKDIR/results"/BENCH_loadgen_uds_single.json \
    "$WORKDIR/results"/BENCH_loadgen_uds_batch.json \
    "$WORKDIR/results"/BENCH_loadgen_uds_timed.json \
    "$WORKDIR/results"/BENCH_loadgen_tcp_single.json

echo "== model-churn: directory fleet through a resident-bytes budget =="
MODELDIR="$WORKDIR/models"
mkdir -p "$MODELDIR"
FLEET=12
CHURN_MODELS=()
for i in $(seq 0 $((FLEET - 1))); do
    name=$(printf 'churn%02d' "$i")
    "$BOLTC" compile --forest "$FOREST" --threshold 2 --model-version 1 \
        --out "$MODELDIR/$name@1.blt"
    CHURN_MODELS+=(--model "$name")
done
# A newer version for the first few names: the store must catalog and
# serve these, and startup compaction (--keep-versions 1) must delete the
# superseded @1 files and journal the survivors to the WAL.
for i in 0 1 2 3; do
    name=$(printf 'churn%02d' "$i")
    "$BOLTC" compile --forest "$FOREST" --threshold 2 --model-version 2 \
        --out "$MODELDIR/$name@2.blt"
done
SIZE=$(stat -c %s "$MODELDIR/churn05@1.blt")
BUDGET=$((SIZE * 9 / 2)) # admits 4 of the 12 models concurrently

# Starts boltd in store mode (model directory, resident budget, version
# retention) and logs its stdout so catalog counts can be compared across
# a crash.
start_boltd_dir() {
    rm -f "$SOCKET"
    "$BOLTD" --model-dir "$MODELDIR" --resident-bytes "$BUDGET" \
        --keep-versions 1 --socket "$SOCKET" >"$1" &
    BOLTD_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$SOCKET" ] && break
        kill -0 "$BOLTD_PID" 2>/dev/null || { echo "boltd died" >&2; exit 1; }
        sleep 0.1
    done
    [ -S "$SOCKET" ] || { echo "boltd never bound $SOCKET" >&2; exit 1; }
}

start_boltd_dir "$WORKDIR/boltd-churn-1.log"
"$BENCH" --connect uds:"$SOCKET" --workload loadgen_model_churn --data lstw \
    --requests "$REQUESTS" --rate 500 --threads 4 "${CHURN_MODELS[@]}" \
    --out "$WORKDIR/results-churn" &
BENCH_PID=$!
sleep 1
echo "-- SIGKILL mid-churn --"
kill -9 "$BOLTD_PID"
wait "$BOLTD_PID" 2>/dev/null || true
BOLTD_PID=""
wait "$BENCH_PID" 2>/dev/null || true

# The restarted process must replay the WAL to the same catalog and serve
# every model in the fleet to completion with zero protocol errors.
start_boltd_dir "$WORKDIR/boltd-churn-2.log"
"$BENCH" --connect uds:"$SOCKET" --workload loadgen_model_churn --data lstw \
    --requests "$REQUESTS" --rate 500 --threads 4 "${CHURN_MODELS[@]}" \
    --out "$WORKDIR/results-churn"
stop_boltd

before=$(grep -o '[0-9]* models cataloged' "$WORKDIR/boltd-churn-1.log")
after=$(grep -o '[0-9]* models cataloged' "$WORKDIR/boltd-churn-2.log")
[ -n "$before" ] || { echo "boltd never cataloged the model dir" >&2; exit 1; }
if [ "$before" != "$after" ]; then
    echo "catalog diverged across SIGKILL: '$before' -> '$after'" >&2
    exit 1
fi
for i in 0 1 2 3; do
    name=$(printf 'churn%02d' "$i")
    if [ -e "$MODELDIR/$name@1.blt" ]; then
        echo "compaction left superseded $name@1.blt behind" >&2
        exit 1
    fi
done
"$BENCH" --check "$WORKDIR/results-churn"/BENCH_loadgen_model_churn.json
echo "model-churn leg OK: $after survive SIGKILL, superseded versions pruned"

echo "== control plane: admin socket, warm-up, live activation, compaction =="
BOLTCTL=./target/release/boltctl
ADMIN_SOCK="$MODELDIR/admin.sock"

# Store mode with the control plane fully on: admin socket (default path
# under the model dir), warm-up of the 4 most recently activated
# artifacts before the first accept, background compaction every second.
start_boltd_admin() {
    rm -f "$SOCKET"
    "$BOLTD" --model-dir "$MODELDIR" --resident-bytes "$BUDGET" \
        --keep-versions 1 --compact-interval 1 --warm-top 4 \
        --socket "$SOCKET" >"$1" &
    BOLTD_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$SOCKET" ] && [ -S "$ADMIN_SOCK" ] && break
        kill -0 "$BOLTD_PID" 2>/dev/null || { echo "boltd died" >&2; exit 1; }
        sleep 0.1
    done
    [ -S "$ADMIN_SOCK" ] || { echo "boltd never bound $ADMIN_SOCK" >&2; exit 1; }
}

start_boltd_admin "$WORKDIR/boltd-admin-1.log"

# --warm-top must have mapped artifacts before the listener accepted.
warmed=""
for _ in $(seq 1 20); do
    if grep -q 'warmed up: ' "$WORKDIR/boltd-admin-1.log"; then warmed=yes; break; fi
    sleep 0.1
done
[ -n "$warmed" ] || { echo "--warm-top produced no warm-up line" >&2; exit 1; }

# The admin socket is owner-only: possession is the credential.
perms=$(stat -c %a "$ADMIN_SOCK")
[ "$perms" = "600" ] || { echo "admin socket mode $perms != 600" >&2; exit 1; }

# Sustained load — with fuzz-shaped hostile frames interleaved on live
# data connections — while the control plane is driven underneath it.
"$BENCH" --connect uds:"$SOCKET" --workload loadgen_admin_churn --data lstw \
    --duration-secs 6 --rate 500 --threads 4 "${CHURN_MODELS[@]}" \
    --hostile-every 16 --out "$WORKDIR/results-admin" &
BENCH_PID=$!
sleep 1

# Drop a brand-new artifact on the RUNNING daemon: rescan catalogs it,
# activate serves it — zero restarts.
"$BOLTC" compile --forest "$FOREST" --threshold 2 --model-version 1 \
    --out "$MODELDIR/fresh@1.blt"
"$BOLTCTL" --socket "$ADMIN_SOCK" rescan
"$BOLTCTL" --socket "$ADMIN_SOCK" activate fresh@1
"$BENCH" --connect uds:"$SOCKET" --workload loadgen_admin_fresh --data lstw \
    --requests 200 --rate 500 --threads 2 --model fresh \
    --out "$WORKDIR/results-admin"

# Refused ops exit nonzero so scripts can gate on them: retiring the
# default model must be refused.
"$BOLTCTL" --socket "$ADMIN_SOCK" set-default fresh
if "$BOLTCTL" --socket "$ADMIN_SOCK" retire fresh 2>/dev/null; then
    echo "retiring the default model was not refused" >&2
    exit 1
fi
"$BOLTCTL" --socket "$ADMIN_SOCK" status

# Background compaction: activate a newer version, then watch the
# periodic compactor — not a restart — delete the superseded artifact.
"$BOLTC" compile --forest "$FOREST" --threshold 2 --model-version 2 \
    --out "$MODELDIR/fresh@2.blt"
"$BOLTCTL" --socket "$ADMIN_SOCK" rescan
"$BOLTCTL" --socket "$ADMIN_SOCK" activate fresh@2
for _ in $(seq 1 100); do
    [ -e "$MODELDIR/fresh@1.blt" ] || break
    sleep 0.1
done
if [ -e "$MODELDIR/fresh@1.blt" ]; then
    echo "background compaction never pruned fresh@1.blt" >&2
    exit 1
fi

wait "$BENCH_PID" || { echo "bolt-bench failed under admin churn" >&2; exit 1; }

echo "-- SIGKILL mid-admin-op --"
# Hammer WAL-journaled admin mutations and yank the daemon mid-stream:
# the restart must replay to exactly before-or-after some operation.
(
    while true; do
        "$BOLTCTL" --socket "$ADMIN_SOCK" set-default fresh >/dev/null 2>&1 || true
        "$BOLTCTL" --socket "$ADMIN_SOCK" set-default churn00 >/dev/null 2>&1 || true
        sleep 0.02
    done
) &
CHURN_PID=$!
sleep 1
kill -9 "$BOLTD_PID"
wait "$BOLTD_PID" 2>/dev/null || true
BOLTD_PID=""
kill "$CHURN_PID" 2>/dev/null || true
wait "$CHURN_PID" 2>/dev/null || true

start_boltd_admin "$WORKDIR/boltd-admin-2.log"
default_row=$("$BOLTCTL" --socket "$ADMIN_SOCK" status | grep '(default)')
case "$default_row" in
    fresh*|churn00*) ;;
    *)
        echo "default after SIGKILL replay is neither candidate: $default_row" >&2
        exit 1
        ;;
esac
"$BENCH" --connect uds:"$SOCKET" --workload loadgen_admin_replay --data lstw \
    --requests 200 --rate 500 --threads 2 --model fresh \
    --out "$WORKDIR/results-admin"
stop_boltd

"$BENCH" --check "$WORKDIR/results-admin"/BENCH_loadgen_admin_churn.json \
    "$WORKDIR/results-admin"/BENCH_loadgen_admin_fresh.json \
    "$WORKDIR/results-admin"/BENCH_loadgen_admin_replay.json
echo "control-plane leg OK: live activation with zero restarts, refused ops exit nonzero, background compaction pruned, warm-up ran, WAL replayed across SIGKILL mid-admin-op"

echo "Load-generator round trip OK: boltd served UDS + TCP open-loop traffic on one event loop, and a model-store fleet survived SIGKILL through the WAL; snapshots validate."
