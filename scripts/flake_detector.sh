#!/usr/bin/env bash
# Flake detector: runs the seeded serving suites several times and fails
# on any failure. Every suite here draws all randomness from fixed seeds,
# so a test that passes only sometimes is a determinism bug, not bad luck.
# The chaos digest is a literal in `chaos_serving`, so every run also
# checks it against the checked-in value.
set -euo pipefail

cd "$(dirname "$0")/.."

RUNS="${RUNS:-3}"
SUITES=(chaos_serving net_serving cluster_serving admission_properties runtime_serving)

cargo build --release --tests

echo "==> flake detector: ${RUNS}x seeded test suites (${SUITES[*]})"
for run in $(seq 1 "$RUNS"); do
  for suite in "${SUITES[@]}"; do
    echo "--- run ${run}/${RUNS}: ${suite}"
    cargo test -q --release --test "$suite"
  done
done

echo "flake detector: ${RUNS}/${RUNS} runs of ${SUITES[*]} passed"
