#!/usr/bin/env bash
# Builds icg-replicad and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tcp-closed-b --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Cargo's
# messages go to standard error; the last line of standard output is the
# benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p icg_apps --bin icg-replicad >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --replicad "$CARGO_TARGET_DIR/release/icg-replicad" "$@"
