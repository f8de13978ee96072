#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Run from the root of
# the repository; see README.md here for what the arguments mean.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--reps <k>] [--out results.json]
#   benchmark/run.sh --compare a.json b.json
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# The build goes where the caller's CARGO_TARGET_DIR says, or beside the
# package; cargo resolves a relative CARGO_TARGET_DIR against the working
# directory, so the binary is looked up the same way.
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr; stdout is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/darkside-benchmark" "$@"
