# Sourced, not run: boots a 3-replica icg-replicad cluster on loopback
# for scripts/cluster_demo.sh and scripts/bench_net.sh.
#
# Three free ports are probed from a randomized base, and the boot is
# retried on a fresh base if another process takes a port in the window
# between probe and bind. ICG_DEMO_PORT=5000 pins the base port (no
# reprobe: a pinned base that is taken fails loudly).
#
# The sourcing script sets REPLICAD and installs `trap cleanup EXIT`;
# `boot_with_retry` then sets P0, P1 and P2 and records the replica
# pids in `pids` (in id order).

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}

# True iff nothing on loopback accepts a connection to $1.
port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

# Picks BASE_PORT: the pinned ICG_DEMO_PORT, or a random base whose
# three consecutive ports all look free right now.
pick_base() {
    if [ -n "${ICG_DEMO_PORT:-}" ]; then
        BASE_PORT="$ICG_DEMO_PORT"
        return
    fi
    for _ in $(seq 1 20); do
        BASE_PORT=$((20000 + RANDOM % 40000))
        if port_free "$BASE_PORT" && port_free $((BASE_PORT + 1)) \
            && port_free $((BASE_PORT + 2)); then
            return
        fi
    done
    echo "cannot find three free loopback ports" >&2
    exit 1
}

# Boots the 3 replicas on $BASE_PORT.. and waits until all of them
# accept connections. Returns nonzero if any replica dies first (port
# stolen between probe and bind).
boot_cluster() {
    P0="127.0.0.1:$BASE_PORT"
    P1="127.0.0.1:$((BASE_PORT + 1))"
    P2="127.0.0.1:$((BASE_PORT + 2))"
    echo "=== booting 3 replicas on $P0 $P1 $P2 ==="
    "$REPLICAD" --id 0 --listen "$P0" --peers "$P1,$P2" & pids+=($!)
    "$REPLICAD" --id 1 --listen "$P1" --peers "$P0,$P2" & pids+=($!)
    "$REPLICAD" --id 2 --listen "$P2" --peers "$P0,$P1" & pids+=($!)
    for i in $(seq 0 49); do
        alive=1
        for pid in "${pids[@]}"; do
            kill -0 "$pid" 2>/dev/null || alive=0
        done
        if [ "$alive" = 0 ]; then
            return 1
        fi
        if ! port_free "$BASE_PORT" && ! port_free $((BASE_PORT + 1)) \
            && ! port_free $((BASE_PORT + 2)); then
            return 0
        fi
        sleep 0.1
    done
    echo "replicas did not become ready within 5s" >&2
    return 1
}

# Boots the cluster, up to three times on fresh bases; exits the
# sourcing script if every attempt fails.
boot_with_retry() {
    for attempt in 1 2 3; do
        pick_base
        if boot_cluster; then
            return 0
        fi
        echo "boot attempt $attempt lost a port race; retrying on a fresh base" >&2
        cleanup
        pids=()
        # A pinned base has nowhere else to go — fail loudly instead of
        # fighting the squatter.
        if [ -n "${ICG_DEMO_PORT:-}" ]; then
            echo "ICG_DEMO_PORT=$ICG_DEMO_PORT is in use" >&2
            exit 1
        fi
    done
    echo "could not boot the cluster after 3 attempts" >&2
    exit 1
}
