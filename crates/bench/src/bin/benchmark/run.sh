#!/usr/bin/env bash
# Builds the diva CLI and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload publish-64k \
#       --seed 0 --seconds 20 --trace 0
#
# Build artifacts go to $CARGO_TARGET_DIR (default: target), the
# benchmark's working files to $CARGO_TARGET_DIR/benchmark/.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p diva-cli >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" --diva "$CARGO_TARGET_DIR/release/diva" "$@"
