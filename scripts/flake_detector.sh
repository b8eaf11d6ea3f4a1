#!/usr/bin/env bash
# Flake detector: runs the seeded serving suites several times and fails
# on any failure. Every suite here draws all randomness from fixed seeds,
# so a test that passes only sometimes is a determinism bug, not bad luck.
# The chaos digest is a literal in `chaos_serving`, so every run also
# checks it against the checked-in value. The `runtime` and `server`
# unit tests run as often beside them: a lost wakeup in the job queue or
# the job cell, or an outbox write resumed at the wrong offset, shows
# there first. A dev-profile pass then runs `alloc_budget`, whose
# process-wide allocation counters once raced the test harness's own
# threads in that profile.
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
  echo "--- run ${run}/${RUNS}: runtime and server unit tests"
  cargo test -q --release -p runtime -p server
done

cargo test --no-run --test alloc_budget

echo "==> flake detector: ${RUNS}x alloc_budget in the dev profile"
for run in $(seq 1 "$RUNS"); do
  echo "--- run ${run}/${RUNS}: alloc_budget (dev)"
  cargo test -q --test alloc_budget
done

echo "flake detector: ${RUNS}/${RUNS} runs of ${SUITES[*]}, the runtime and server unit tests and alloc_budget (dev) passed"
