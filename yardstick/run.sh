#!/usr/bin/env bash
# Builds the benchmark and the shipped hyde-serve binary from source,
# then runs one workload. Run from the repository root:
#
#   bash yardstick/run.sh --workload suite-1t --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# messages go to stderr so the last stdout line stays the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path yardstick/Cargo.toml >&2
cargo build --release --offline --quiet -p hyde-serve --bin hyde-serve >&2
exec "$CARGO_TARGET_DIR/release/yardstick" "$@"
