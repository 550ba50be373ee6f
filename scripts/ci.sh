#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tier-1 build + tests.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh quick    # skip the release build (lints + debug tests)
#
# fmt/clippy run only when the toolchain provides them, so the script
# also works on minimal rust installations.
set -euo pipefail
cd "$(dirname "$0")/.."

quick="${1:-}"

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "== cargo fmt unavailable, skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== cargo clippy unavailable, skipping"
fi

# In-repo static analysis (DESIGN.md §12): interprocedural lock-rank
# order, replay determinism, crash-point registry, panic audit, WAL
# byte order, atomics ordering protocol, snapshot-path purity, and the
# stale-allow audit. Zero findings required; diagnostics are
# file:line: [pass] message. Runs before the release build so a lint
# failure fails fast; the machine-readable findings (stable IDs) land
# in target/lint/findings.json as the CI artifact.
echo "== morph-lint (self-test + full passes)"
cargo test -q -p morph-lint
cargo run -q -p morph-lint -- --json=target/lint/findings.json

if [ "$quick" != "quick" ]; then
    echo "== cargo build --release (tier-1)"
    cargo build --release

    # Bench regression gates (DESIGN.md §14, §15). Three series, all
    # merged into BENCH_propagation.json with a cores field:
    #   reader_gate  — lock-based vs MVCC-snapshot point reads
    #                  interleaved under four pacing writers and a
    #                  looping split migration; snapshot p50 must be
    #                  ≥1.2× better than the locked read path (cores
    #                  ≥ 2 only). The p99 ratio is recorded, not
    #                  enforced: it swings 1.2–3.2× run to run here.
    #   shard_gate   — aggregate router commit + migration throughput
    #                  at shards 1/2/4/8 under 8 clients; ≥1.8×
    #                  aggregate speedup at 4 shards (cores ≥ 4 only).
    #   lazy_tail    — hot-shard p99 read/write mid-migration, lazy
    #                  (SLSM) vs eager; lazy must win on ≥4 cores.
    # Below its core count a comparative gate records without
    # enforcing — such results are overhead readings, not scaling data.
    echo "== bench gates (bench_check: MVCC reader, shard router, lazy tail)"
    cargo run -q --release -p morph-bench --bin bench_check
fi

# Every test the workspace compiles: the tier-1 root suites
# (tests/equivalence.rs compares batched drain, parallel copy, partial
# iterations, rename-in-place and sharded fan-out with the plain
# pipeline; DESIGN.md §10, §15), every crate's unit tests, the WAL
# codec/backend properties and append/crash stress (§11), and the
# crash simulator: the kill matrices keyed off crash_points.txt
# (crash_matrix.rs, migration_matrix.rs; §9, §13, §15), determinism,
# and the seed sweep. SIM_SEEDS=N widens the sweep: census + 3 seeded
# kills per (scenario × strategy × seed) cell, every kill checked
# against the Theorem 1 recovery oracle (EXPERIMENTS.md).
echo "== cargo test --workspace (SIM_SEEDS=${SIM_SEEDS:-4})"
SIM_SEEDS="${SIM_SEEDS:-4}" cargo test -q --workspace

# The repository's benchmark (benchmark/README.md) is a package of its
# own that builds against this checkout: its fmt, clippy, unit tests and
# a smoke run of every workload (a release build, so not in `quick`), so
# a product change that breaks the benchmark's build or its result lines
# fails here.
if [ "$quick" != "quick" ]; then
    echo "== benchmark self-check (benchmark/check.sh)"
    benchmark/check.sh
fi

echo "CI OK"
