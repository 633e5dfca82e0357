#!/usr/bin/env bash
# Build the `prophet` release binary and the benchmark from source, then
# run the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot_estimate --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin prophet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

export PERFBENCH_PROPHET="$CARGO_TARGET_DIR/release/prophet"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
