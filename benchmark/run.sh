#!/usr/bin/env bash
# Build morphbench (release, offline) and run it with the given arguments.
# Without arguments it runs the whole suite: four workloads, untraced and
# traced. Runs from the root of the checkout whatever the caller's
# directory, so the build lands in target/morphbench (or wherever
# CARGO_TARGET_DIR points) and WAL files and traces in target/morphbench.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/morphbench}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/morphbench" "$@"
