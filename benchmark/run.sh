#!/usr/bin/env bash
# The repo benchmark in one command. Builds the benchmark package from
# source (offline; it depends only on the crates of this repository), then
# hands every argument to it:
#
#   benchmark/run.sh [--seed N]            every workload, timed + traced run,
#                                          every metric printed by name
#   benchmark/run.sh --smoke               the same at 1/50 of the job counts
#   benchmark/run.sh --check               the whole suite twice; non-zero exit
#                                          if the two sets disagree
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run of one workload; the last
#                                          line of stdout is the result object
#
# Nothing outside benchmark/ is written, apart from the cargo target
# directory when CARGO_TARGET_DIR points elsewhere.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/repo-benchmark" --results-dir "$here/results" "$@"
