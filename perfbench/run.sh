#!/usr/bin/env bash
# Builds the `tfsn` binary and the benchmark from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm_query --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of stdout is the result JSON.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    -p tfsn-engine -p tfsn-perfbench --bins >&2
exec "$CARGO_TARGET_DIR/release/tfsn-perfbench" "$@" \
    --tfsn "$CARGO_TARGET_DIR/release/tfsn" \
    --tmp "$CARGO_TARGET_DIR/perfbench-tmp"
