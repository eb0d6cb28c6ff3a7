#!/usr/bin/env bash
# Builds the served `sdd` binary and the benchmark harness from source, then
# runs the harness. Run from the repository root:
#   bash perfbench/run.sh --workload census-explore --seed 1 --seconds 24 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sdd-cli --bin sdd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sdd-perfbench" --sdd "$CARGO_TARGET_DIR/release/sdd" "$@"
