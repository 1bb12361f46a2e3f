#!/usr/bin/env bash
# Boots a 3-replica quorum store on loopback TCP and drives it with
# icg-loadgen; exits green iff every operation completed. This is the
# one-command proof that the deployment layer serves real traffic —
# CI's net-smoke step runs it with --quick.
#
# Usage: scripts/cluster_demo.sh [--quick] [--kill]
#   --quick      abbreviated run (CI): fewer clients/ops, skips the ICG
#                latency-comparison pass
#   --kill       crash one replica mid-demo and run a second loadgen pass
#                against the surviving quorum (R=2 of 3 stays available)
#
# Ports: by default three free ports are probed from a randomized base,
# and boot is retried on a fresh base if another process steals one in
# the window between probe and bind (scripts/cluster_boot.sh) — parallel
# CI jobs no longer flake on collisions. ICG_DEMO_PORT=5000 pins the
# base port (no reprobe).
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
KILL=0
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) QUICK=1 ;;
        --kill) KILL=1 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

if [ "$QUICK" = 1 ]; then
    CLIENTS=2 OPS=300 KEYS=200
else
    CLIENTS=4 OPS=2000 KEYS=1000
fi

echo "=== building (release) ==="
cargo build --release -q -p icg_apps

REPLICAD=target/release/icg-replicad
LOADGEN=target/release/icg-loadgen

# shellcheck source=scripts/cluster_boot.sh
. scripts/cluster_boot.sh
trap cleanup EXIT
boot_with_retry

echo "=== closed-loop ICG load ($CLIENTS clients x $OPS ops, zipfian over $KEYS keys) ==="
"$LOADGEN" --replicas "$P0,$P1,$P2" \
    --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1

if [ "$QUICK" = 0 ]; then
    echo "=== same load, confirmation optimization (*CC) on ==="
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --confirm

    echo "=== single-level baselines (weak-only, strong-only reads) ==="
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --mode weak
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --mode strong
fi

if [ "$KILL" = 1 ]; then
    echo "=== crashing replica 2, rerunning against the surviving quorum ==="
    kill -9 "${pids[2]}" 2>/dev/null || true
    # Clients may lose in-flight replies when connections die; allow a
    # handful of failures, require the rest to complete at R=2 of the
    # two survivors.
    "$LOADGEN" --replicas "$P0,$P1" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 \
        --allow-failures 10
fi

echo "=== cluster demo passed ==="
