#!/usr/bin/env bash
# Everything the benchmark's own code has to pass: format, lints, unit
# tests, and a smoke run of all four workloads (one round on small
# tables; checks the result lines against the metric tables, no bounds).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target/morphbench}"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
./run.sh --smoke
