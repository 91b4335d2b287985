#!/usr/bin/env bash
# The benchmark's one command. Builds the measured release binaries
# (ligra-serve, ligra-route) from the root workspace and the harness from
# this nested one — offline, into one target directory — then runs the
# harness with the arguments given:
#
#   benchmark/run.sh [--seed N] [--runs K] [--out DIR]      every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                           one run; last stdout line is its JSON result
#   benchmark/run.sh compare A/ B/                          judge two result sets by BENCHMARK.json's bounds
#   benchmark/run.sh aa                                     the suite twice on this tree, then compare
#
# Build output goes to stderr so stdout carries only results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/engine" ]]; then
    echo "benchmark/run.sh: $root is not the repository (no Cargo.toml, no crates/engine): nothing to measure" >&2
    exit 2
fi
cd "$root"

# One target directory for both workspaces, so the harness finds the
# server binaries beside itself. A relative CARGO_TARGET_DIR (the
# driver's .bench_build) is relative to the repo root, where we are.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet -p ligra-engine --bin ligra-serve --bin ligra-route >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/ligra-bench" "$@"
