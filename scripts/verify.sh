#!/usr/bin/env bash
# Full local verification: formatting, lints, tier-1 build + tests.
# Everything here works offline — the workspace has no registry
# dependencies, so no network access is needed at any step.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (release profile)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> rebootlint (determinism, panic-hygiene, wire-freeze, family-tag-freeze, lock-order, event-loop, alloc-bounds)"
# Wall-clock budget: the call-graph + dataflow analyses must stay cheap
# enough to run on every check. The binary is already built release by
# the clippy step above, so this times analysis, not compilation.
LINT_BUDGET_SECS=30
lint_start=$SECONDS
cargo run --release -q -p lint
lint_elapsed=$((SECONDS - lint_start))
echo "    rebootlint wall-clock: ${lint_elapsed}s (budget ${LINT_BUDGET_SECS}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET_SECS" ]; then
  echo "verify: rebootlint took ${lint_elapsed}s, over its ${LINT_BUDGET_SECS}s budget" >&2
  exit 1
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests"
cargo test -q --release --workspace

echo "==> smoke: loadgen (TCP serving + cross-wire determinism)"
timeout 180 cargo run --release --example loadgen -- --clients 2 --jobs 24 --workers 2

echo "==> smoke: loadgen chaos (seeded fault injection + failover)"
timeout 180 cargo run --release --example loadgen -- --clients 2 --jobs 24 --workers 2 \
  --policy prefer-specialized --chaos --seed 29

echo "==> smoke: loadgen duplicate-heavy (admission cache + coalescing)"
# loadgen itself asserts the hit rate clears the duplicate ratio and that
# cached results are byte-identical to an admission-disabled cold replay;
# the greps below keep this script honest about what that run proved.
dup_out=$(timeout 180 cargo run --release --example loadgen -- --clients 2 --jobs 40 \
  --workers 2 --mix duplicate-heavy --dup-ratio 0.9)
echo "$dup_out" | tail -n 8
echo "$dup_out" | grep -E "admission: [0-9]+ cache hits" | grep -qv "admission: 0 cache hits + 0 coalesced" \
  || { echo "verify: duplicate-heavy run served no traffic from admission" >&2; exit 1; }
echo "$dup_out" | grep -q "cached and cold runs agree byte-for-byte" \
  || { echo "verify: cached-vs-cold byte equality check missing" >&2; exit 1; }

echo "==> smoke: loadgen coloring-heavy (family frames + cross-wire determinism)"
# Three of four jobs ride the generic family frame; the rest stay on
# native frames over the same connections. loadgen asserts the networked
# results match a direct replay byte-for-byte.
col_out=$(timeout 180 cargo run --release --example loadgen -- --clients 2 --jobs 40 \
  --workers 2 --mix coloring-heavy)
echo "$col_out" | tail -n 4
echo "$col_out" | grep -q "family mix: 30/40 jobs ride the generic family frame" \
  || { echo "verify: coloring-heavy run did not use family frames" >&2; exit 1; }
echo "$col_out" | grep -q "agree byte-for-byte on all 40/40 outcomes" \
  || { echo "verify: coloring-heavy byte equality check missing" >&2; exit 1; }

echo "==> smoke: loadgen qubo-heavy (family frames on the DMM backend)"
qubo_out=$(timeout 180 cargo run --release --example loadgen -- --clients 2 --jobs 40 \
  --workers 2 --mix qubo-heavy --policy prefer-specialized)
echo "$qubo_out" | tail -n 4
echo "$qubo_out" | grep -q "family mix: 30/40 jobs ride the generic family frame" \
  || { echo "verify: qubo-heavy run did not use family frames" >&2; exit 1; }
echo "$qubo_out" | grep -q "agree byte-for-byte on all 40/40 outcomes" \
  || { echo "verify: qubo-heavy byte equality check missing" >&2; exit 1; }

echo "==> smoke: loadgen 2-shard cluster (router sharding + cross-shard determinism)"
cluster_out=$(timeout 180 cargo run --release --example loadgen -- --shards 2 --clients 2 \
  --jobs 60 --workers 1 --mix duplicate-heavy --dup-ratio 0.9)
echo "$cluster_out" | tail -n 6
echo "$cluster_out" | grep -q "cluster (2 shards) and direct (1 worker) runs agree byte-for-byte" \
  || { echo "verify: cluster-vs-direct byte equality check missing" >&2; exit 1; }

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
