#!/usr/bin/env bash
# Full local verification: formatting, lints, tier-1 build + tests.
# Everything here works offline — the workspace has no registry
# dependencies, so no network access is needed at any step.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Clippy also checks the determinism, panic-hygiene and event-loop rules:
# crates/*/clippy.toml and the crates' [lints.clippy] tables (DESIGN.md §8).
# A clippy.toml path that no longer resolves (a renamed method) is a warning
# that -D warnings does not promote, so any warning line fails here too.
clippy_strict() {
  local out
  out=$(cargo clippy --workspace --all-targets "$@" -- -D warnings 2>&1) || {
    printf '%s\n' "$out" >&2
    exit 1
  }
  if grep -q '^warning' <<<"$out"; then
    printf '%s\n' "$out" >&2
    echo "verify: clippy printed a warning" >&2
    exit 1
  fi
}

echo "==> cargo clippy (workspace, all targets, -D warnings)"
clippy_strict

echo "==> cargo clippy (release profile)"
clippy_strict --release

echo "==> cargo doc (workspace, -D warnings: broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests"
cargo test -q --release --workspace

echo "==> examples (release; every example must exit 0)"
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  if ! cargo run --release -q --example "$name" > /dev/null; then
    echo "verify: example $name failed" >&2
    exit 1
  fi
done

echo "==> benchmark package (compiles against the crates' public API; not a workspace member)"
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "==> smoke: repo benchmark (four workloads at 1/50 of the job counts; fails if any job fails)"
smoke_out=$(bash benchmark/run.sh --smoke)
printf '%s\n' "$smoke_out"

echo "==> digest gate: the smoke run's exact lines against scripts/benchmark_smoke.exact"
# Outcome digests, operation counts, modelled device seconds, DMM steps and
# wire byte counts at seed 2019 repeat exactly from run to run and from
# commit to commit. A change that moves one either changed what a
# simulator computes (a bug, unless DIVERGENCES.md says otherwise and the
# file is regenerated in the same change: `bash benchmark/run.sh --smoke |
# grep '^exact ' > scripts/benchmark_smoke.exact`) or changed the wire.
if ! diff <(printf '%s\n' "$smoke_out" | grep '^exact ') scripts/benchmark_smoke.exact; then
  echo "verify: exact benchmark lines moved ('<' this run, '>' checked in)" >&2
  exit 1
fi

echo "verify: all checks passed"
