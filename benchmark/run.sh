#!/usr/bin/env bash
# The one command of the repo benchmark (see README.md):
#
#   benchmark/run.sh --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh --check      # fmt + clippy -D warnings + unit tests of this package
#
# Builds the harness in release mode (offline; every dependency is a
# path inside the repo) and runs it from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
if [[ "${1:-}" == "--check" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest"
    exit 0
fi
exec cargo run --quiet --offline --release --manifest-path "$manifest" -- "$@"
