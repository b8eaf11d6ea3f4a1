//! Cluster scaling benchmark: the same duplicate-heavy workload served
//! by a 1-shard and a 2-shard cluster, with a byte-for-byte determinism
//! check against a direct in-process runtime. Emits `BENCH_cluster.json`.
//!
//! **What the speedup measures.** Each shard runs one worker and a
//! bounded admission result cache that is deliberately *smaller than the
//! unique key pool* (capacity 24 vs 40 uniques). On one shard the
//! random-access duplicate stream thrashes the LRU — roughly
//! `(U - C) / U` of the duplicate traffic misses and recomputes. Two
//! shards split the key space by the router's consistent hash, so each
//! shard's resident set (~20 keys) fits its cache and nearly every
//! duplicate is a hit. The speedup is therefore *aggregate cache*
//! scaling — the shards' caches add up because key affinity keeps every
//! canonical kernel on one shard — not thread parallelism (the harness
//! is a single closed-loop client, and this container has one core).
//!
//! The compute per miss is a Grover search simulated at 12 qubits under
//! `PreferSpecialized`, expensive enough (~10ms) that cache behavior,
//! not wire overhead, dominates the wall clock.
//!
//! Run with: `cargo run --release --example cluster_bench` (add
//! `-- --quick` for a smaller job count in smoke tests).

use accel::kernel::Kernel;
use cluster::{Router, RouterConfig};
use numerics::rng::{rng_from_seed, Rng};
use rebooting_models::workload::{digest, job_seeds};
use runtime::{
    AdmissionConfig, DispatchPolicy, JobOptions, QuarantinePolicy, Runtime, RuntimeConfig,
};
use server::{Server, ServerConfig};
use std::time::Instant;
use wire::WireOutcome;

const MASTER_SEED: u64 = 2019;
const N_QUBITS: usize = 12;
const UNIQUES: usize = 40;
const CACHE_CAPACITY: usize = 24;
const POLICY: DispatchPolicy = DispatchPolicy::PreferSpecialized;

/// The duplicate-heavy stream: `uniques` distinct Grover searches (one
/// marked item each, so every kernel has its own canonical key), then
/// seeded-random repeats that keep each original's seed — the same
/// shape as `workload::duplicate_heavy_workload`, pinned to a kernel
/// family whose recompute cost dwarfs the wire round-trip.
fn bench_workload(jobs: usize) -> (Vec<Kernel>, Vec<u64>) {
    let pool: Vec<Kernel> = (0..UNIQUES)
        .map(|i| Kernel::Search {
            n_qubits: N_QUBITS,
            marked: vec![(i * 97) % (1 << N_QUBITS)],
        })
        .collect();
    let pool_seeds = job_seeds(UNIQUES, MASTER_SEED);
    let mut rng = rng_from_seed(MASTER_SEED ^ 0x9e37_79b9_7f4a_7c15);
    let mut kernels = Vec::with_capacity(jobs);
    let mut seeds = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let src = if i < UNIQUES {
            i
        } else {
            rng.gen_range(0..UNIQUES)
        };
        kernels.push(pool[src].clone());
        seeds.push(pool_seeds[src]);
    }
    (kernels, seeds)
}

struct ShardStats {
    shard: u32,
    submitted: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
}

struct RunReport {
    shards: usize,
    wall_s: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    computed: u64,
    per_shard: Vec<ShardStats>,
    digest: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Serves the workload closed-loop from an N-shard cluster and reports
/// wall time, latency percentiles, per-shard admission counters, and
/// the outcome digest.
fn run_sharded(
    shards: usize,
    workload: &[Kernel],
    seeds: &[u64],
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let servers: Vec<Server> = (0..shards)
        .map(|_| {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                max_connections: 4,
                runtime: RuntimeConfig {
                    workers: 1,
                    policy: POLICY,
                    seed: MASTER_SEED,
                    quarantine: QuarantinePolicy::disabled(),
                    admission: AdmissionConfig {
                        cache_capacity: CACHE_CAPACITY,
                        coalesce: false,
                        hedge: None,
                    },
                    ..RuntimeConfig::default()
                },
            })
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(Server::local_addr).collect();
    let mut router = Router::connect(
        &addrs,
        RouterConfig {
            seed: MASTER_SEED,
            ..RouterConfig::default()
        },
    )?;

    let mut fingerprints = Vec::with_capacity(workload.len());
    let mut latencies_ms = Vec::with_capacity(workload.len());
    let started = Instant::now();
    for (kernel, &seed) in workload.iter().zip(seeds) {
        let job_started = Instant::now();
        let ticket = router.submit_blocking(
            kernel.clone(),
            JobOptions {
                seed: Some(seed),
                policy: Some(POLICY),
                timeout: None,
            },
        )?;
        let outcome = router.wait(ticket)?;
        latencies_ms.push(job_started.elapsed().as_secs_f64() * 1e3);
        if !matches!(outcome, WireOutcome::Completed { .. }) {
            return Err(format!("job did not complete: {outcome:?}").into());
        }
        fingerprints.push(outcome.fingerprint()?);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let stats = router.stats()?;
    let per_shard: Vec<ShardStats> = stats
        .per_shard
        .iter()
        .map(|(shard, s)| ShardStats {
            shard: *shard,
            submitted: s.submitted,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            coalesced: s.coalesced,
        })
        .collect();
    let computed = stats.merged.cache_misses;
    drop(router);
    for server in servers {
        let _ = server.shutdown();
    }

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    #[allow(clippy::cast_precision_loss)]
    let throughput = workload.len() as f64 / wall_s;
    Ok(RunReport {
        shards,
        wall_s,
        throughput,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        computed,
        per_shard,
        digest: digest(&fingerprints),
    })
}

/// Replays the workload on a direct in-process runtime (same worker
/// count and policy, default admission) and returns its digest.
fn run_direct(workload: &[Kernel], seeds: &[u64]) -> Result<u64, Box<dyn std::error::Error>> {
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        policy: POLICY,
        seed: MASTER_SEED,
        quarantine: QuarantinePolicy::disabled(),
        ..RuntimeConfig::default()
    })?;
    let mut fingerprints = Vec::with_capacity(workload.len());
    for (kernel, &seed) in workload.iter().zip(seeds) {
        let handle = runtime.submit_with(
            kernel.clone(),
            JobOptions {
                seed: Some(seed),
                policy: Some(POLICY),
                timeout: None,
            },
        )?;
        let outcome = handle.wait();
        fingerprints.push(WireOutcome::from(&outcome).fingerprint()?);
    }
    let _ = runtime.shutdown();
    Ok(digest(&fingerprints))
}

fn shard_json(s: &ShardStats) -> String {
    let keyed = s.cache_hits + s.cache_misses + s.coalesced;
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = if keyed == 0 {
        0.0
    } else {
        (s.cache_hits + s.coalesced) as f64 / keyed as f64
    };
    format!(
        "{{\"shard\": {}, \"submitted\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"coalesced\": {}, \"hit_rate\": {hit_rate:.4}}}",
        s.shard, s.submitted, s.cache_hits, s.cache_misses, s.coalesced
    )
}

fn run_json(r: &RunReport) -> String {
    let shards: Vec<String> = r.per_shard.iter().map(shard_json).collect();
    format!(
        "    {{\n      \"shards\": {},\n      \"wall_s\": {:.4},\n      \
         \"throughput_jobs_per_s\": {:.2},\n      \"p50_ms\": {:.3},\n      \
         \"p99_ms\": {:.3},\n      \"computed_jobs\": {},\n      \
         \"digest\": \"{:016x}\",\n      \"per_shard\": [{}]\n    }}",
        r.shards,
        r.wall_s,
        r.throughput,
        r.p50_ms,
        r.p99_ms,
        r.computed,
        r.digest,
        shards.join(", ")
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs = if quick { 120 } else { 320 };
    let (workload, seeds) = bench_workload(jobs);
    println!(
        "cluster bench: {jobs} jobs over {UNIQUES} unique {N_QUBITS}-qubit searches, \
         per-shard cache capacity {CACHE_CAPACITY}, policy {POLICY:?}"
    );

    let mut runs = Vec::new();
    for shards in [1usize, 2] {
        let report = run_sharded(shards, &workload, &seeds)?;
        println!(
            "  {} shard(s): {:.2} jobs/s ({:.3}s wall, p50 {:.2}ms, p99 {:.2}ms, \
             {} jobs computed, digest {:016x})",
            report.shards,
            report.throughput,
            report.wall_s,
            report.p50_ms,
            report.p99_ms,
            report.computed,
            report.digest
        );
        for s in &report.per_shard {
            println!(
                "    shard {}: {} submitted, {} hits / {} misses",
                s.shard, s.submitted, s.cache_hits, s.cache_misses
            );
        }
        runs.push(report);
    }

    let direct_digest = run_direct(&workload, &seeds)?;
    let results_match = runs.iter().all(|r| r.digest == direct_digest);
    let speedup = runs[1].throughput / runs[0].throughput;
    println!("direct replay digest: {direct_digest:016x}");
    println!("2-shard speedup over 1-shard: {speedup:.2}x (aggregate-cache effect)");
    if !results_match {
        return Err("cluster outcomes diverged from the direct replay".into());
    }
    println!("all runs agree byte-for-byte with the direct replay");

    let json = format!(
        "{{\n  \"bench\": \"cluster_scaling\",\n  \"jobs\": {jobs},\n  \
         \"uniques\": {UNIQUES},\n  \"kernel\": \"search_{N_QUBITS}_qubits\",\n  \
         \"policy\": \"{POLICY:?}\",\n  \"workers_per_shard\": 1,\n  \
         \"clients\": 1,\n  \"cache_capacity_per_shard\": {CACHE_CAPACITY},\n  \
         \"runs\": [\n{}\n  ],\n  \"speedup_2_shard_over_1\": {speedup:.3},\n  \
         \"results_match_direct\": {results_match}\n}}\n",
        runs.iter().map(run_json).collect::<Vec<_>>().join(",\n")
    );
    std::fs::write("BENCH_cluster.json", &json)?;
    println!("wrote BENCH_cluster.json");
    Ok(())
}
